"""Timing harness for the Fig. 14 performance comparisons.

The paper measures "webpage load time": the full cost of producing a
page whose content comes from one code fragment.  Here that is the
wall-clock time of executing the fragment — the original version runs
its ORM fetches (hydrating every retrieved row into an entity object,
optionally resolving associations eagerly) and its application-side
loops; the QBS version runs the inferred SQL and hydrates only the
returned rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.synthesizer import SynthesisOptions, Synthesizer
from repro.core.transform import TransformedFragment
from repro.kernel import ast as K
from repro.sql.database import Database


@dataclass
class PageLoadMeasurement:
    """One measured configuration."""

    label: str
    db_size: int
    fetch: str                  # lazy | eager | n/a (transformed)
    seconds: float
    rows_returned: int
    objects_hydrated: int = 0
    queries_issued: int = 0

    def row(self) -> str:
        return "%-22s n=%-8d %-6s %10.1f ms  rows=%-8d objs=%-8d q=%d" % (
            self.label, self.db_size, self.fetch, self.seconds * 1e3,
            self.rows_returned, self.objects_hydrated, self.queries_issued)


def measure_original(label: str, db_size: int, make_service: Callable,
                     db: Database, method: str, fetch: str,
                     args: tuple = (), repeats: int = 1
                     ) -> PageLoadMeasurement:
    """Time the original fragment through the ORM."""
    best = None
    rows = 0
    service = None
    for _ in range(max(1, repeats)):
        service = make_service(db, fetch=fetch)
        start = time.perf_counter()
        result = getattr(service, method)(*args)
        elapsed = time.perf_counter() - start
        rows = _result_size(result)
        best = elapsed if best is None else min(best, elapsed)
    session = service.session
    return PageLoadMeasurement(
        label=label, db_size=db_size, fetch=fetch, seconds=best,
        rows_returned=rows, objects_hydrated=session.objects_hydrated,
        queries_issued=session.queries_issued)


def measure_transformed(label: str, db_size: int,
                        transformed: TransformedFragment, db: Database,
                        params: Optional[Dict[str, Any]] = None,
                        repeats: int = 1) -> PageLoadMeasurement:
    """Time the QBS-inferred query."""
    best = None
    rows = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = transformed.execute(db, params)
        elapsed = time.perf_counter() - start
        rows = _result_size(result)
        best = elapsed if best is None else min(best, elapsed)
    return PageLoadMeasurement(
        label=label, db_size=db_size, fetch="n/a", seconds=best,
        rows_returned=rows,
        objects_hydrated=rows if isinstance(rows, int) else 0,
        queries_issued=1)


def _result_size(result: Any) -> int:
    if isinstance(result, (list, tuple, set)):
        return len(result)
    return 1


def sweep(sizes: List[int], run_one: Callable[[int], List[PageLoadMeasurement]]
          ) -> List[PageLoadMeasurement]:
    """Run one figure's sweep, printing rows as they complete."""
    out: List[PageLoadMeasurement] = []
    for size in sizes:
        for measurement in run_one(size):
            print("  " + measurement.row())
            out.append(measurement)
    return out


def speedup_table(measurements: List[PageLoadMeasurement]) -> Dict[int, float]:
    """original(lazy) / inferred time per database size."""
    by_size: Dict[int, Dict[str, float]] = {}
    for m in measurements:
        bucket = by_size.setdefault(m.db_size, {})
        key = "inferred" if m.fetch == "n/a" else "original_%s" % m.fetch
        bucket.setdefault(key, m.seconds)
    out: Dict[int, float] = {}
    for size, bucket in by_size.items():
        if "inferred" in bucket and "original_lazy" in bucket \
                and bucket["inferred"] > 0:
            out[size] = bucket["original_lazy"] / bucket["inferred"]
    return out


# ---------------------------------------------------------------------------
# Synthesis-search speed (the engine itself, not the generated queries)
# ---------------------------------------------------------------------------


def seed_synthesis_options(**overrides) -> SynthesisOptions:
    """The seed search engine: eager enumeration, tree-walking evaluator."""
    return SynthesisOptions(lazy_enumeration=False, compiled_eval=False,
                            **overrides)


@dataclass
class SynthesisSpeedMeasurement:
    """One fragment synthesized under one engine mode."""

    fragment_id: str
    mode: str                   # "seed" | "optimized"
    seconds: float
    eval_requests: int          # evaluations the search asked for
    eval_executed: int          # evaluations actually run (= requests
                                # under the seed engine; fewer with
                                # memoization and state pre-filtering)
    eval_memo_hits: int
    combinations_checked: int
    enum_peak_frontier: int     # peak heap size of lazy enumeration
    succeeded: bool

    def row(self) -> str:
        return ("%-16s %-9s %9.2f ms  exec=%-8d req=%-8d "
                "combos=%-5d frontier=%-5d %s" % (
                    self.fragment_id, self.mode, self.seconds * 1e3,
                    self.eval_executed, self.eval_requests,
                    self.combinations_checked, self.enum_peak_frontier,
                    "ok" if self.succeeded else "--"))


def measure_synthesis(fragment_id: str, fragment: K.Fragment, mode: str,
                      options: Optional[SynthesisOptions] = None,
                      repeats: int = 1) -> SynthesisSpeedMeasurement:
    """Synthesize one fragment, reporting wall-clock and evaluator work.

    Counters come from the best (fastest) run; they are identical
    across repeats because the search is deterministic.
    """
    if options is None:
        options = SynthesisOptions() if mode == "optimized" \
            else seed_synthesis_options()
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = Synthesizer(fragment, options).synthesize()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    elapsed, result = best
    stats = result.stats
    return SynthesisSpeedMeasurement(
        fragment_id=fragment_id, mode=mode, seconds=elapsed,
        eval_requests=stats.eval_requests,
        eval_executed=stats.eval_executed,
        eval_memo_hits=stats.eval_memo_hits,
        combinations_checked=stats.combinations_checked,
        enum_peak_frontier=stats.enum_peak_frontier,
        succeeded=result.succeeded)


# ---------------------------------------------------------------------------
# Corpus service runs (sequential vs. worker-pool, bench_qbs_parallel)
# ---------------------------------------------------------------------------


@dataclass
class CorpusRunMeasurement:
    """One full corpus run through the service scheduler."""

    mode: str                   # "sequential" | "parallel" | "cached"
    workers: int
    seconds: float
    outcomes: list              # List[JobOutcome], submission order

    def row(self) -> str:
        done = sum(1 for o in self.outcomes if o.ok)
        cached = sum(1 for o in self.outcomes if o.from_cache)
        return "%-10s workers=%-2d %8.2f ms  jobs=%-3d ok=%-3d cached=%d" % (
            self.mode, self.workers, self.seconds * 1e3,
            len(self.outcomes), done, cached)


def measure_corpus_run(fragments, mode: str, workers: int = 1,
                       cache=None, options=None, job_timeout=None,
                       retry=None, repeats: int = 1
                       ) -> CorpusRunMeasurement:
    """Run the corpus through a fresh scheduler; keep the fastest repeat.

    ``retry`` (a :class:`repro.service.faults.RetryPolicy`) measures
    the resilience layer's warm-path overhead: on a fault-free run it
    must stay within noise of the no-retry configuration.
    """
    from repro.service.scheduler import Scheduler

    best = None
    for _ in range(max(1, repeats)):
        scheduler = Scheduler(workers=workers, job_timeout=job_timeout,
                              cache=cache, options=options, retry=retry)
        report = scheduler.run(list(fragments))
        if best is None or report.wall_seconds < best.wall_seconds:
            best = report
    return CorpusRunMeasurement(mode=mode, workers=workers,
                                seconds=best.wall_seconds,
                                outcomes=best.outcomes)


def corpus_outcome_fingerprint(measurement: CorpusRunMeasurement) -> List[tuple]:
    """Everything two runs must agree on, fragment for fragment:
    QBS status, Appendix-A marker, and the SQL text (None when absent)."""
    from repro.service.scheduler import outcome_fingerprint

    return outcome_fingerprint(measurement.outcomes)


def corpus_speedup(sequential: CorpusRunMeasurement,
                   parallel: CorpusRunMeasurement) -> float:
    if parallel.seconds <= 0:
        return float("inf")
    return sequential.seconds / parallel.seconds


def synthesis_speedup(measurements: List[SynthesisSpeedMeasurement]
                      ) -> Dict[str, float]:
    """Aggregate seed-vs-optimized ratios over a measurement set."""
    totals: Dict[str, Dict[str, float]] = {}
    for m in measurements:
        bucket = totals.setdefault(m.mode, {"seconds": 0.0, "executed": 0})
        bucket["seconds"] += m.seconds
        bucket["executed"] += m.eval_executed
    out: Dict[str, float] = {}
    seed = totals.get("seed")
    optimized = totals.get("optimized")
    if seed and optimized and optimized["seconds"] > 0 \
            and optimized["executed"] > 0:
        out["wall_clock"] = seed["seconds"] / optimized["seconds"]
        out["eval_calls"] = seed["executed"] / optimized["executed"]
    return out


# ---------------------------------------------------------------------------
# Machine-readable bench artifacts (BENCH_<name>.json)
# ---------------------------------------------------------------------------

#: artifact schema identifier; bump when the shape changes.
#: v2 added ``git_commit`` and the monotonic-safe ``created_utc``
#: ISO-8601 form of ``created_unix``.
BENCH_ARTIFACT_SCHEMA = "repro-bench-artifact/v2"

#: environment override for where artifacts land (default: CWD).
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: keys every artifact must carry (validated by the obs smoke tests
#: and re-checkable by any downstream tooling).
BENCH_ARTIFACT_KEYS = ("schema", "name", "created_unix", "created_utc",
                      "git_commit", "ok", "smoke", "floors",
                      "measurements", "metrics", "python")


def bench_artifact_dir() -> str:
    import os

    return os.environ.get(BENCH_DIR_ENV) or os.getcwd()


#: memoized ``git rev-parse HEAD`` (False = not looked up yet).
_GIT_COMMIT: Any = False


def _git_commit() -> Optional[str]:
    """Best-effort commit hash for the working directory; None outside
    a git repo (or with git missing / timing out).  Memoized — one
    subprocess per process, not per artifact."""
    global _GIT_COMMIT
    if _GIT_COMMIT is False:
        import subprocess

        commit: Optional[str] = None
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"],
                                  capture_output=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.decode("ascii", "replace").strip() \
                    or None
        except Exception:
            commit = None
        _GIT_COMMIT = commit
    return _GIT_COMMIT


#: high-water mark for :func:`_utc_stamp`.
_LAST_STAMP = 0.0


def _utc_stamp() -> float:
    """``time.time()``, clamped to never run backwards within this
    process: the wall clock can step under NTP, but artifacts written
    one after another must keep their order."""
    global _LAST_STAMP
    now = time.time()
    if now < _LAST_STAMP:
        now = _LAST_STAMP
    _LAST_STAMP = now
    return now


def _iso_utc(stamp: float) -> str:
    from datetime import datetime, timezone

    return datetime.fromtimestamp(stamp, tz=timezone.utc) \
        .isoformat().replace("+00:00", "Z")


def floor_entry(value: float, floor: float,
                asserted: bool = True) -> Dict[str, Any]:
    """One speedup-floor record: the measured ratio, the floor it is
    held to, whether it passed, and whether the benchmark actually
    asserted it (floors gated on core count report ``asserted=False``
    on small machines)."""
    return {"value": value, "floor": floor,
            "passed": bool(value >= floor), "asserted": bool(asserted)}


def write_bench_artifact(name: str, ok: bool,
                         floors: Optional[Dict[str, Dict[str, Any]]] = None,
                         measurements: Optional[List[Any]] = None,
                         extra: Optional[Dict[str, Any]] = None,
                         smoke: bool = False) -> str:
    """Persist one benchmark run as ``BENCH_<name>.json``.

    Timings, the floors with their pass/fail verdicts, and a full
    metrics-registry snapshot land in
    one JSON document next to the working directory (override with
    ``$REPRO_BENCH_DIR``).  Written atomically (tempfile + rename) so
    a killed benchmark never leaves a half-written artifact.
    Non-JSON-serializable measurement values degrade to ``repr`` —
    an artifact write must never fail the benchmark it documents.
    """
    import json
    import os
    import tempfile
    import sys

    from repro.obs import metrics as obs_metrics

    created = _utc_stamp()
    payload = {
        "schema": BENCH_ARTIFACT_SCHEMA,
        "name": name,
        "created_unix": created,
        "created_utc": _iso_utc(created),
        "git_commit": _git_commit(),
        "ok": bool(ok),
        "smoke": bool(smoke),
        "floors": floors or {},
        "measurements": measurements or [],
        "metrics": obs_metrics.REGISTRY.snapshot(),
        "python": sys.version.split()[0],
    }
    if extra:
        payload["extra"] = extra
    directory = bench_artifact_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "BENCH_%s.json" % name)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True,
                      default=repr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def validate_bench_artifact(payload: Dict[str, Any]) -> None:
    """Raise ValueError unless ``payload`` is a well-formed artifact."""
    missing = [key for key in BENCH_ARTIFACT_KEYS if key not in payload]
    if missing:
        raise ValueError("bench artifact missing keys: %s"
                         % ", ".join(missing))
    if payload["schema"] != BENCH_ARTIFACT_SCHEMA:
        raise ValueError("unknown bench artifact schema: %r"
                         % payload["schema"])
    for label, entry in payload["floors"].items():
        for key in ("value", "floor", "passed", "asserted"):
            if key not in entry:
                raise ValueError("floor %r missing %r" % (label, key))
