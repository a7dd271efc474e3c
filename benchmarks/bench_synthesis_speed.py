"""Synthesis-search engine speed: optimized vs. seed implementation.

The seed engine materialized and sorted the full candidate cartesian
product and interpreted every TOR expression with a tree-walking
evaluator, once per candidate per world state.  This benchmark pits it
against the rebuilt engine (lazy best-first enumeration + compiled,
state-memoized evaluation + pre-indexed checker state enumeration) on
Fig. 13 corpus synthesis, and *measures* the claims instead of
asserting them:

* >= 2x wall-clock reduction over the corpus,
* >= 3x fewer TOR evaluator invocations (``eval_executed`` — counted at
  identical call sites in both modes; the evaluation-count ratio is
  deterministic),
* candidate-enumeration memory bounded by the combinations actually
  consumed, independent of ``max_combinations``,
* bit-identical synthesis outcomes,
* at most 1/2.75 of the Fourier-Motzkin runs per corpus QBS pass that
  the prover made before it memoised entailment and decided goals one
  fact or a free atom settles without eliminating (an exact count),
  with every status and SQL text equal to the memo-free oracle
  prover's,
* at most 1/1.75 of the checker states built and of the states that
  reach derivation per corpus QBS pass before state lists were built
  from guard-filtered domains and invariant bounds were checked ahead
  of derivation (exact counts),
* at most 1/20 of the per-row path resolutions and operator dispatches
  (``resolve_path`` plus ``_scalar_binop`` calls) one corpus QBS pass
  made before TOR compilation resolved paths and operators once per
  closure, and at most two thirds of the prover's rewrite passes
  (``Prover._rewrite`` calls) before it memoised one pass per subterm
  and context (exact counts).

Run directly for the full table::

    PYTHONPATH=src python benchmarks/bench_synthesis_speed.py
    PYTHONPATH=src python benchmarks/bench_synthesis_speed.py --smoke

(``--smoke`` shrinks bounds so CI can catch perf regressions fast), or
through pytest with the rest of the benchmark suite.
"""

import dataclasses
import functools
import itertools
import sys

import repro.core.arith as arith
import repro.core.checker as checker_module
import repro.core.qbs as qbs_module
import repro.tor.compile as tor_compile
import repro.tor.semantics as tor_semantics
import repro.tor.values as tor_values
from repro.bench.harness import (
    floor_entry,
    measure_synthesis,
    seed_synthesis_options,
    synthesis_speedup,
    write_bench_artifact,
)
from repro.core.enumerate import EnumerationStats, best_first_product
from repro.core.prover import Prover
from repro.core.qbs import QBS
from repro.core.synthesizer import SynthesisOptions, Synthesizer
from repro.corpus.registry import ALL_FRAGMENTS, compile_fragment
from repro.frontend import FrontendRejection

#: Acceptance thresholds (ISSUE 1).
MIN_WALL_CLOCK_SPEEDUP = 2.0
MIN_EVAL_CALL_REDUCTION = 3.0

#: Fourier-Motzkin runs (``repro.core.arith._feasible``) in one QBS pass
#: over the corpus before the prover memoised entailment.  The floor
#: asks for at most 1/2.75: BASELINE_FM_CALLS / calls >= 2.75 (1,906
#: runs, 2.04x, with the memo alone; 1,338 once one fact or a free atom
#: settles a goal without elimination).
BASELINE_FM_CALLS = 3887
MIN_FM_CALL_REDUCTION = 2.75

#: Base environments the checker built (``_product_envs`` yields) in
#: one QBS pass over the corpus while it built the whole product and
#: then dropped the states a static guard rules out, and states that
#: reached derivation (``_VCPlan.derive`` calls) before invariant
#: bounds were checked ahead of it.  The floors ask for at most 1/1.75
#: of each.
BASELINE_STATES_BUILT = 26056
BASELINE_STATES_DERIVED = 14048
MIN_STATE_REDUCTION = 1.75

#: ``resolve_path`` plus ``_scalar_binop`` calls in one QBS pass over
#: the corpus while every compiled closure resolved its paths and
#: dispatched its operators per row.  The floor asks for at most 1/20.
BASELINE_PATH_CALLS = 209236
MIN_PATH_CALL_REDUCTION = 20.0

#: ``Prover._rewrite`` calls in one QBS pass over the corpus before the
#: prover memoised rewrite passes.  The floor asks for at most two
#: thirds: BASELINE_REWRITE_CALLS / calls >= 1.5.
BASELINE_REWRITE_CALLS = 16194
MIN_REWRITE_CALL_REDUCTION = 1.5


def corpus_fragments(limit=None):
    """Every Fig. 13 / Sec. 7.3 fragment the frontend accepts."""
    out = []
    for cf in ALL_FRAGMENTS:
        try:
            out.append((cf.fragment_id, compile_fragment(cf)))
        except FrontendRejection:
            continue
        if limit is not None and len(out) >= limit:
            break
    return out


def run_comparison(repeats=3, limit=None, max_combinations=None):
    """Measure every fragment under both engine modes."""
    seed_opts = seed_synthesis_options()
    opt_opts = SynthesisOptions()
    if max_combinations is not None:
        seed_opts.max_combinations = max_combinations
        opt_opts.max_combinations = max_combinations
    measurements = []
    for fragment_id, fragment in corpus_fragments(limit):
        measurements.append(measure_synthesis(
            fragment_id, fragment, "optimized", opt_opts, repeats=repeats))
        measurements.append(measure_synthesis(
            fragment_id, fragment, "seed", seed_opts, repeats=repeats))
    return measurements


def frontier_memory_probe():
    """Peak enumeration memory under a cap far beyond the seed's reach.

    Two measurements, returned as (synthesizer peaks per cap, direct
    enumerator peak, product size):

    * a real synthesis run (first corpus fragment with a non-trivial
      candidate space) under ``max_combinations`` of 2 000 and
      2 000 000 — the peak frontier must not change, because memory
      follows what the search *consumes* before it finds a candidate,
      not the cap (the seed implementation materialized the whole
      product either way);
    * the bare enumerator consuming 64 of 8^5 combinations — the
      frontier must stay orders of magnitude below the product size.
    """
    synth_peaks = []
    for cap in (2000, 2_000_000):
        for fragment_id, fragment in corpus_fragments():
            options = SynthesisOptions(max_combinations=cap)
            result = Synthesizer(fragment, options).synthesize()
            if result.stats.enum_peak_frontier > 0:
                synth_peaks.append(result.stats.enum_peak_frontier)
                break

    axes = [[type("E", (), {"size": staticmethod(lambda s=s: s)})()
             for s in range(8)] for _ in range(5)]
    stats = EnumerationStats()
    list(itertools.islice(
        best_first_product(axes, size=lambda e: e.size(), stats=stats), 64))
    return synth_peaks, stats.peak_frontier, 8 ** 5


def corpus_outcomes():
    """Status marker and SQL text of every compilable corpus fragment."""
    qbs = QBS()
    out = []
    for fragment_id, fragment in corpus_fragments():
        result = qbs.run(fragment)
        out.append((fragment_id, result.status.marker,
                    result.sql.sql if result.sql else None))
    return out


#: (counter, owner, attribute) for every function :func:`call_probe`
#: counts.  Path resolution and operator dispatch are wrapped wherever
#: a module holds the name (their own modules, the interpreter, and
#: ``tor/compile.py`` when it imports them), so a call is counted
#: whichever name it goes through.
_COUNTED = [("fm", arith, "_feasible"), ("rewrite", Prover, "_rewrite"),
            ("states_derived", checker_module._VCPlan, "derive")] + [
    ("paths", module, name)
    for module in (tor_values, tor_semantics, tor_compile)
    for name in ("resolve_path", "_scalar_binop") if hasattr(module, name)]

#: (counter, owner, attribute) for every generator :func:`call_probe`
#: counts the items of: the checker's base environments.
_YIELDED = [("states_built", checker_module, "_product_envs")]


def call_probe():
    """Exact counts of one corpus QBS pass; do outcomes match the oracle?

    Counts by wrapping the functions named in ``_COUNTED`` and
    ``_YIELDED`` from here: FM runs (``repro.core.arith._feasible``),
    the prover's rewrite passes (``Prover._rewrite``), per-row path
    resolutions plus operator dispatches (``resolve_path`` and
    ``_scalar_binop``), the checker's states that reach derivation
    (``_VCPlan.derive``) and the base environments it builds (items
    of ``_product_envs``).  Then
    repeats the pass with ``Prover(nf_cache=False)``, which answers
    every question without a memo, and compares status and SQL per
    fragment.  Returns (counts by counter, outcomes identical).
    """
    probed = _COUNTED + _YIELDED
    counts = dict.fromkeys((counter for counter, _, _ in probed), 0)
    originals = [(owner, name, getattr(owner, name))
                 for _, owner, name in probed]

    def counting(counter, fn):
        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)
        return wrapper

    def counting_items(counter, fn):
        def wrapper(*args):
            for item in fn(*args):
                counts[counter] += 1
                yield item
        return wrapper

    for counter, owner, name in _COUNTED:
        setattr(owner, name, counting(counter, getattr(owner, name)))
    for counter, owner, name in _YIELDED:
        setattr(owner, name, counting_items(counter, getattr(owner, name)))
    try:
        outcomes = corpus_outcomes()
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    qbs_module.Prover = functools.partial(Prover, nf_cache=False)
    try:
        oracle = corpus_outcomes()
    finally:
        qbs_module.Prover = Prover
    return counts, outcomes == oracle


#: (label, counter, baseline, floor name) per exact count.
COUNT_ROWS = (
    ("FM runs", "fm", BASELINE_FM_CALLS, "fm_calls"),
    ("path/operator calls", "paths", BASELINE_PATH_CALLS, "path_calls"),
    ("rewrite passes", "rewrite", BASELINE_REWRITE_CALLS, "rewrite_calls"),
    ("checker states built", "states_built", BASELINE_STATES_BUILT,
     "states_built"),
    ("states derived", "states_derived", BASELINE_STATES_DERIVED,
     "states_derived"))

#: floor name -> the reduction it asks for.
COUNT_FLOORS = {"fm_calls": MIN_FM_CALL_REDUCTION,
                "path_calls": MIN_PATH_CALL_REDUCTION,
                "rewrite_calls": MIN_REWRITE_CALL_REDUCTION,
                "states_built": MIN_STATE_REDUCTION,
                "states_derived": MIN_STATE_REDUCTION}


def count_reductions(counts):
    """Baseline over measured count, per floor (a count of 0 reads as 1)."""
    return {floor: baseline / max(counts[counter], 1)
            for _, counter, baseline, floor in COUNT_ROWS}


def test_synthesis_speed_vs_seed(benchmark):
    measurements = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    by_fragment = {}
    for m in measurements:
        by_fragment.setdefault(m.fragment_id, {})[m.mode] = m

    print("\nSynthesis-engine comparison (Fig. 13 corpus):")
    for fragment_id, modes in by_fragment.items():
        for mode in ("seed", "optimized"):
            print("  " + modes[mode].row())
        assert modes["seed"].succeeded == modes["optimized"].succeeded

    ratios = synthesis_speedup(measurements)
    print("  wall-clock speedup: %.2fx   evaluator-call reduction: %.2fx"
          % (ratios["wall_clock"], ratios["eval_calls"]))
    assert ratios["wall_clock"] >= MIN_WALL_CLOCK_SPEEDUP
    assert ratios["eval_calls"] >= MIN_EVAL_CALL_REDUCTION

    # Enumeration memory is frontier-bounded and cap-independent.
    synth_peaks, enum_peak, product_size = frontier_memory_probe()
    assert len(synth_peaks) == 2 and synth_peaks[0] == synth_peaks[1]
    assert enum_peak < product_size / 100

    # Memoised entailment and its shortcuts cut FM runs, compiled paths
    # and operators all but remove per-row resolution, memoised rewrite
    # passes cut the prover's, guard-filtered domains and invariant
    # bounds cut the checker's states; outcomes do not move.
    counts, oracle_match = call_probe()
    print("  per corpus QBS pass: %(fm)d FM runs, %(paths)d path/operator "
          "calls, %(rewrite)d rewrite passes, %(states_built)d states "
          "built, %(states_derived)d derived" % counts)
    assert oracle_match
    for floor, reduction in count_reductions(counts).items():
        assert reduction >= COUNT_FLOORS[floor], floor


def main(argv):
    # Smoke mode: single repeat, table suppressed — same corpus and the
    # same thresholds (the evaluation-count ratio is deterministic, and
    # the wall-clock margin is wide enough for one-shot timing), so a
    # perf regression fails fast in CI.
    smoke = "--smoke" in argv
    repeats = 1 if smoke else 3
    measurements = run_comparison(repeats=repeats)
    if not smoke:
        for m in measurements:
            print(m.row())
    ratios = synthesis_speedup(measurements)
    synth_peaks, enum_peak, product_size = frontier_memory_probe()
    counts, oracle_match = call_probe()
    reductions = count_reductions(counts)
    print("wall-clock speedup      : %.2fx (floor %.1fx)"
          % (ratios["wall_clock"], MIN_WALL_CLOCK_SPEEDUP))
    print("evaluator-call reduction: %.2fx (floor %.1fx)"
          % (ratios["eval_calls"], MIN_EVAL_CALL_REDUCTION))
    print("synthesis enum frontier : %s (max_combinations 2k vs 2M); "
          "bare enumerator %d of product %d"
          % (" vs ".join(str(p) for p in synth_peaks), enum_peak,
             product_size))
    for label, counter, baseline, floor in COUNT_ROWS:
        print("%-24s: %d per QBS pass of baseline %d, %.2fx fewer "
              "(floor %gx)" % (label, counts[counter], baseline,
                               reductions[floor], COUNT_FLOORS[floor]))
    print("outcomes %s the oracle prover's"
          % ("match" if oracle_match else "DIFFER from"))
    ok = (ratios["wall_clock"] >= MIN_WALL_CLOCK_SPEEDUP
          and ratios["eval_calls"] >= MIN_EVAL_CALL_REDUCTION
          and len(synth_peaks) == 2 and synth_peaks[0] == synth_peaks[1]
          and enum_peak < product_size / 100
          and all(reductions[floor] >= minimum
                  for floor, minimum in COUNT_FLOORS.items())
          and oracle_match)
    floors = {
        "wall_clock": floor_entry(ratios["wall_clock"],
                                  MIN_WALL_CLOCK_SPEEDUP),
        "eval_calls": floor_entry(ratios["eval_calls"],
                                  MIN_EVAL_CALL_REDUCTION),
    }
    for floor, minimum in COUNT_FLOORS.items():
        floors[floor] = floor_entry(reductions[floor], minimum)
    write_bench_artifact(
        "synthesis_speed", ok, smoke=smoke, floors=floors,
        measurements=[dataclasses.asdict(m) for m in measurements],
        extra={"synth_peaks": synth_peaks, "enum_peak": enum_peak,
               "product_size": product_size, "repeats": repeats,
               "fm_calls": counts["fm"], "path_calls": counts["paths"],
               "rewrite_calls": counts["rewrite"],
               "states_built": counts["states_built"],
               "states_derived": counts["states_derived"],
               "fm_oracle_match": oracle_match})
    print("RESULT: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
