"""Parallel QBS service: sequential vs. worker-pool corpus runs.

The per-fragment QBS pipeline is embarrassingly parallel — each
Fig. 13 / Sec. 7.3 fragment is an independent synthesize-prove-
translate job — so the service scheduler fans the corpus out over a
``multiprocessing`` pool.  This benchmark measures three claims:

* **outcome identity** (asserted unconditionally): the parallel run
  produces, fragment for fragment, the same ``QBSStatus``, Appendix-A
  marker and SQL text as the sequential run;
* **wall-clock speedup** (asserted where the hardware can express it):
  >= 1.8x at 4 workers over the full corpus.  The assertion needs
  >= 4 usable cores — on smaller machines the measured ratio is
  reported and the floor is skipped, because four CPU-bound workers
  cannot beat one on a single core;
* **cache effectiveness** (asserted unconditionally): a warm-cache
  re-run answers every fragment from disk, recomputing nothing;
* **retry-layer overhead** (floor shared with the parallel claim): the
  same parallel run under an armed ``RetryPolicy`` — classification,
  attempt accounting, backoff bookkeeping on every job — must still
  clear the 1.8x floor, i.e. the fault-free warm path pays nothing
  measurable for the resilience layer, and must stay outcome-identical.

Run directly::

    PYTHONPATH=src python benchmarks/bench_qbs_parallel.py
    PYTHONPATH=src python benchmarks/bench_qbs_parallel.py --smoke

(``--smoke`` uses one timing repeat), or through pytest with the rest
of the benchmark suite.
"""

import shutil
import sys
import tempfile

from repro.bench.harness import (
    corpus_outcome_fingerprint,
    corpus_speedup,
    floor_entry,
    measure_corpus_run,
    write_bench_artifact,
)
from repro.corpus.registry import ALL_FRAGMENTS
from repro.service.cache import ResultCache
from repro.service.faults import RetryPolicy
from repro.service.pool import usable_cores

#: Acceptance thresholds (ISSUE 2).
MIN_PARALLEL_SPEEDUP = 1.8
PARALLEL_WORKERS = 4
#: cores the speedup floor needs before it is enforced.
MIN_CORES_FOR_FLOOR = 4


def run_comparison(repeats=3):
    """Sequential, parallel, retry-armed parallel and warm-cache runs."""
    fragments = list(ALL_FRAGMENTS)
    sequential = measure_corpus_run(fragments, "sequential", workers=1,
                                    repeats=repeats)
    parallel = measure_corpus_run(fragments, "parallel",
                                  workers=PARALLEL_WORKERS,
                                  repeats=repeats)
    retrying = measure_corpus_run(fragments, "par+retry",
                                  workers=PARALLEL_WORKERS,
                                  retry=RetryPolicy(max_attempts=3),
                                  repeats=repeats)
    cache_dir = tempfile.mkdtemp(prefix="qbs-bench-cache-")
    try:
        cache = ResultCache(cache_dir)
        measure_corpus_run(fragments, "warmup", workers=1, cache=cache)
        cached = measure_corpus_run(fragments, "cached", workers=1,
                                    cache=cache, repeats=repeats)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return sequential, parallel, retrying, cached


def check(sequential, parallel, retrying, cached, verbose=True):
    """Evaluate the four claims; returns (ok, lines)."""
    lines = []
    for measurement in (sequential, parallel, retrying, cached):
        lines.append("  " + measurement.row())

    identical = (corpus_outcome_fingerprint(sequential)
                 == corpus_outcome_fingerprint(parallel)
                 == corpus_outcome_fingerprint(retrying)
                 == corpus_outcome_fingerprint(cached))
    lines.append("outcome identity (status/marker/SQL x%d fragments): %s"
                 % (len(sequential.outcomes),
                    "identical" if identical else "MISMATCH"))

    all_cached = all(o.from_cache for o in cached.outcomes)
    lines.append("warm-cache run: %s"
                 % ("all %d from cache" % len(cached.outcomes)
                    if all_cached else "RECOMPUTED SOMETHING"))

    speedup = corpus_speedup(sequential, parallel)
    retry_speedup = corpus_speedup(sequential, retrying)
    cores = usable_cores()
    floor_applies = cores >= MIN_CORES_FOR_FLOOR
    suffix = "" if floor_applies else \
        " — floor skipped, needs >= %d" % MIN_CORES_FOR_FLOOR
    lines.append("parallel speedup at %d workers: %.2fx (floor %.1fx, "
                 "%d usable core%s%s)"
                 % (PARALLEL_WORKERS, speedup, MIN_PARALLEL_SPEEDUP,
                    cores, "s" if cores != 1 else "", suffix))
    lines.append("retry-armed speedup at %d workers: %.2fx (same floor: "
                 "fault-free retry overhead must be noise%s)"
                 % (PARALLEL_WORKERS, retry_speedup, suffix))

    ok = identical and all_cached and (
        not floor_applies
        or (speedup >= MIN_PARALLEL_SPEEDUP
            and retry_speedup >= MIN_PARALLEL_SPEEDUP))
    if verbose:
        for line in lines:
            print(line)
    return ok, lines


def test_parallel_corpus_service(benchmark):
    sequential, parallel, retrying, cached = benchmark.pedantic(
        run_comparison, kwargs={"repeats": 1}, rounds=1, iterations=1)
    assert corpus_outcome_fingerprint(sequential) \
        == corpus_outcome_fingerprint(parallel)
    assert corpus_outcome_fingerprint(sequential) \
        == corpus_outcome_fingerprint(retrying)
    assert corpus_outcome_fingerprint(sequential) \
        == corpus_outcome_fingerprint(cached)
    assert all(o.from_cache for o in cached.outcomes)
    if usable_cores() >= MIN_CORES_FOR_FLOOR:
        assert corpus_speedup(sequential, parallel) >= MIN_PARALLEL_SPEEDUP
        assert corpus_speedup(sequential, retrying) >= MIN_PARALLEL_SPEEDUP
    ok, _ = check(sequential, parallel, retrying, cached, verbose=True)
    assert ok


def main(argv):
    smoke = "--smoke" in argv
    repeats = 1 if smoke else 3
    sequential, parallel, retrying, cached = run_comparison(repeats=repeats)
    ok, _ = check(sequential, parallel, retrying, cached, verbose=True)
    cores = usable_cores()
    floor_applies = cores >= MIN_CORES_FOR_FLOOR
    write_bench_artifact(
        "qbs_parallel", ok, smoke=smoke,
        floors={
            "parallel": floor_entry(corpus_speedup(sequential, parallel),
                                    MIN_PARALLEL_SPEEDUP,
                                    asserted=floor_applies),
            "retry_armed": floor_entry(
                corpus_speedup(sequential, retrying),
                MIN_PARALLEL_SPEEDUP, asserted=floor_applies),
        },
        extra={"workers": PARALLEL_WORKERS, "usable_cores": cores,
               "fragments": len(sequential.outcomes),
               "all_cached": all(o.from_cache for o in cached.outcomes),
               "repeats": repeats})
    print("RESULT: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
