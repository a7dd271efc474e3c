"""The four closed-loop workloads and the phases of one run.

Every workload runs one caller that waits for each operation before it
sends the next.  An operation is one fragment translated
(``translate``, ``translate-workers``) or one page loaded
(``pageload-inferred``, ``pageload-orm``).  Each workload knows how to
set itself up from a seed, how to produce its next pass of operations,
how to run one operation through the program's public API, and how to
check every result against its reference once the timed phase is over.
README.md says why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perfbench import datagen, tracing
from perfbench.hostspeed import REFERENCE_S, HostSpeed
from repro.core.transform import TransformedFragment, entity_rows
from repro.corpus.advanced import AdvancedService, advanced_mappings
from repro.corpus.itracker import ItrackerService
from repro.corpus.registry import run_fragment_through_qbs, select_fragments
from repro.corpus.schema import itracker_mappings, wilos_mappings
from repro.corpus.wilos import WilosService
from repro.orm.session import Session
from repro.service.scheduler import Scheduler
from repro.sql.executor import ExecutorOptions
from repro.sql.parser import parse
from repro.tor.values import Record

#: Operations a timed phase holds at least, so that ten or more
#: latencies lie beyond p95.
MIN_OPS = 200

#: Cold set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 5


class OpFailed(Exception):
    """An operation that ended without a usable result."""


def corpus(fragment_ids: Optional[Tuple[str, ...]]) -> List[Any]:
    """The corpus fragments with these ids (all when None), in corpus
    order."""
    return select_fragments(
        ids=None if fragment_ids is None else list(fragment_ids))


class Workload:
    """One closed-loop workload; subclasses fill in the operations."""

    name = ""
    workers = 1
    #: corpus fragments the workload draws from; None means all 58.
    #: The determinism test narrows this to keep its runs brief.
    fragment_ids: Optional[Tuple[str, ...]] = None
    #: set while a traced pass runs
    tracer: Optional[tracing.Tracer] = None

    def __init__(self) -> None:
        #: operation times as measured, and scaled to the reference speed
        self.latencies: List[float] = []
        self.busy = 0.0
        self.scaled: List[float] = []
        self.scaled_busy = 0.0
        self.speed = HostSpeed()
        #: the operations left in a paused pass
        self.rest: Optional[Iterator[Any]] = None
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None

    # -- to be provided by each workload --------------------------------------

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def next_pass(self) -> List[Any]:
        raise NotImplementedError

    def do(self, op: Any) -> Any:
        raise NotImplementedError

    def record(self, op: Any, result: Any) -> None:
        raise NotImplementedError

    def check(self) -> Tuple[int, int]:
        """(results checked, mismatches) against the references."""
        raise NotImplementedError

    # -- the closed loop ------------------------------------------------------

    def run_pass(self, measured: bool = True,
                 stop: Optional[Callable[[], bool]] = None) -> None:
        """Run the current pass, or the next one, one operation at a
        time.  When ``stop()`` turns true the pass pauses after that
        operation, and the next call resumes it."""
        if self.rest is None:
            self.rest = iter(self.next_pass())
        tracer = self.tracer
        for op in self.rest:
            if measured:
                self.speed.sample()
            if tracer is not None:
                tracer.op_id += 1
                root = tracer.open(tracing.ROOT)
            started = time.perf_counter()
            try:
                result = self.do(op)
            except Exception as exc:  # counted, reported, run continues
                result = exc
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.close(root)
            if measured:
                self._count(elapsed, result, op)
            if stop is not None and stop():
                return
        self.rest = None

    def _count(self, elapsed: float, result: Any, op: Any) -> None:
        scaled = elapsed * self.speed.factor()
        self.attempted += 1
        self.latencies.append(elapsed)
        self.busy += elapsed
        self.scaled.append(scaled)
        self.scaled_busy += scaled
        if isinstance(result, Exception):
            self._fail(result)
        else:
            self.record(op, result)

    def _fail(self, exc: Exception) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = "%s: %s" % (type(exc).__name__, exc)


# -- translation workloads ----------------------------------------------------


class Translate(Workload):
    """QBS over the whole corpus through ``Scheduler(workers=1)``."""

    name = "translate"

    def setup(self, seed: int) -> None:
        self.orders = datagen.pass_orders(seed, corpus(self.fragment_ids))
        self.scheduler = Scheduler(workers=self.workers, cache=None)
        self.statuses: Counter = Counter()
        self.run_pass(measured=False)   # warm-up pass

    def next_pass(self) -> List[Any]:
        return next(self.orders)

    def do(self, fragment):
        outcome = self.scheduler.run([fragment]).outcomes[0]
        if not outcome.ok:
            raise OpFailed("%s: %s" % (fragment.fragment_id, outcome.error))
        return outcome

    def record(self, fragment, outcome) -> None:
        status = outcome.result.status
        self.statuses[(fragment.fragment_id, fragment.expected, status)] += 1
        if self.tracer is not None:
            counts = self.tracer.counts
            counts["service.job_attempts"] += outcome.attempts
            stats = outcome.result.stats
            if stats is not None:
                counts["core.eval_requests"] += stats.eval_requests
                counts["core.eval_executed"] += stats.eval_executed
                counts["core.eval_memo_hits"] += stats.eval_memo_hits
                counts["core.combinations_checked"] += \
                    stats.combinations_checked

    def check(self) -> Tuple[int, int]:
        checked = mismatches = 0
        self.markers = Counter()
        for (_, expected, status), n in self.statuses.items():
            checked += n
            mismatches += n if status is not expected else 0
            self.markers[status.marker] += n
        return checked, mismatches


class TranslateWorkers(Translate):
    """The same corpus through ``Scheduler(workers=nproc)``.

    One pass is one ``Scheduler.run`` over the shuffled corpus, so it
    includes spawning the workers, dispatch and JSON transport.  Per
    fragment latency is the scheduler's own dispatch-to-reply time
    (``JobOutcome.elapsed_seconds``), the only per-fragment time a
    caller of a batch can see.
    """

    name = "translate-workers"
    workers = max(2, len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 2)

    def run_pass(self, measured=True, stop=None) -> None:
        """Run the next pass as one ``Scheduler.run``; it never
        pauses."""
        tracer = self.tracer
        order = self.next_pass()
        if measured:
            self.speed.sample()
        if tracer is not None:
            tracer.op_id += 1
            root = tracer.open(tracing.ROOT)
        started = time.perf_counter()
        report = self.scheduler.run(order)
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.close(root)
        if not measured:
            return
        scale = self.speed.factor()
        self.busy += elapsed
        self.scaled_busy += elapsed * scale
        for fragment, outcome in zip(order, report.outcomes):
            self.attempted += 1
            self.latencies.append(outcome.elapsed_seconds)
            self.scaled.append(outcome.elapsed_seconds * scale)
            if outcome.ok:
                self.record(fragment, outcome)
            else:
                self._fail(OpFailed("%s: %s" % (fragment.fragment_id,
                                                outcome.error)))


# -- page-load workloads ------------------------------------------------------


class _Page:
    """One translated fragment served as a page."""

    def __init__(self, corpus_fragment, transformed):
        self.cf = corpus_fragment
        self.transformed = transformed
        self.param_names = list(transformed.result.fragment.inputs)

    def params(self, args: Tuple[Any, ...]) -> Dict[str, Any]:
        return dict(zip(self.param_names, args))


class PageLoad(Workload):
    """Shared set-up and checking for the two page workloads."""

    scale = ""

    def setup(self, seed: int) -> None:
        self.dbs = datagen.build_databases(seed, self.scale)
        self.pages: Dict[str, _Page] = {}
        for cf in corpus(self.fragment_ids):
            result = run_fragment_through_qbs(cf)
            if result.translated:
                self.pages[cf.fragment_id] = _Page(
                    cf, TransformedFragment(result))
        self.sequence = datagen.page_sequence(seed, self.scale,
                                              sorted(self.pages))
        #: (page id, args) -> fingerprint -> loads that produced it
        self.seen: Dict[Tuple, Counter] = defaultdict(Counter)
        warm = {}
        for page_id, args in self.sequence:
            warm.setdefault(page_id, args)
        self._warm = list(warm.items())
        self.run_pass(measured=False)   # warm-up pass
        self._warm = None

    def next_pass(self) -> List[Any]:
        # Each pass starts from fresh engines over the same catalogs, as
        # after an application restart: statement-cache misses are part
        # of every pass in the same proportion.
        self.views = {app: db.view() for app, db in self.dbs.items()}
        return self._warm or self.sequence

    def record(self, op, result) -> None:
        self.seen[op][self.fingerprint(op, result)] += 1

    def check(self) -> Tuple[int, int]:
        checked = mismatches = 0
        for key, fingerprints in self.seen.items():
            expected = self.reference(key)
            for fingerprint, n in fingerprints.items():
                checked += n
                mismatches += n if fingerprint != expected else 0
        return checked, mismatches


def _fingerprint(value: Any) -> Tuple[str, Any, int]:
    size = len(value) if isinstance(value, (tuple, frozenset)) else None
    return type(value).__name__, size, hash(value)


def _unwrap(row: Any) -> Any:
    if isinstance(row, Record) and len(row.fields) == 1:
        return row[row.fields[0]]
    return row


def _canonical(value: Any, as_set: bool) -> Any:
    """A page result in comparable form, as in the corpus equivalence
    tests: rows as ``entity_rows`` gives them, one-column rows as their
    value, and sets as sets."""
    if not isinstance(value, (list, tuple, set)):
        return value
    rows = tuple(map(_unwrap, entity_rows(value)))
    return frozenset(rows) if as_set else rows


class PageLoadInferred(PageLoad):
    """The transformed application: every page runs its inferred SQL."""

    name = "pageload-inferred"
    scale = "large"

    def do(self, op):
        page_id, args = op
        page = self.pages[page_id]
        return page.transformed.execute(self.views[page.cf.app],
                                        page.params(args))

    def fingerprint(self, op, result):
        return _fingerprint(result)

    def reference(self, key) -> Tuple:
        """The seed pipeline's answer on a view of the same catalog.

        The seed pipeline rejects GROUP BY; grouped pages are checked
        against the vectorized greedy planner instead, whose aggregate
        and join operators share no code with the default row engine.
        """
        page_id, args = key
        page = self.pages[page_id]
        select = parse(page.transformed.sql)
        oracle = ExecutorOptions(planner=False)
        if select.group_by or select.having is not None:
            oracle = ExecutorOptions(vectorized=True, cost_based=False)
        db = self.dbs[page.cf.app].view(oracle)
        return _fingerprint(page.transformed.execute(db, page.params(args)))


class PageLoadOrm(PageLoad):
    """The original application: service methods over an eager session."""

    name = "pageload-orm"
    scale = "small"

    def setup(self, seed: int) -> None:
        self.services = {
            "wilos": (WilosService, wilos_mappings()),
            "itracker": (ItrackerService, itracker_mappings()),
            "advanced": (AdvancedService, advanced_mappings()),
        }
        #: (page id, args) -> whether the original returned a set
        self.shape: Dict[Tuple, bool] = {}
        super().setup(seed)

    def do(self, op):
        page_id, args = op
        page = self.pages[page_id]
        service_cls, mappings = self.services[page.cf.app]
        # One session per page load, as one per request in a web app.
        session = Session(self.views[page.cf.app], mappings, fetch="eager")
        span = self.tracer.open("orm.self") if self.tracer else None
        try:
            value = getattr(service_cls(session), page.cf.method)(*args)
        finally:
            if span is not None:
                self.tracer.close(span)
        return value, session

    def record(self, op, result) -> None:
        value, session = result
        if self.tracer is not None:
            counts = self.tracer.counts
            counts["orm.objects_hydrated"] += session.objects_hydrated
            counts["orm.queries_issued"] += session.queries_issued
        self.shape[op] = isinstance(value, set)
        super().record(op, value)

    def fingerprint(self, op, value):
        return _fingerprint(_canonical(value, self.shape[op]))

    def reference(self, key) -> Tuple:
        """The inferred SQL's answer on the same database."""
        page_id, args = key
        page = self.pages[page_id]
        db = self.dbs[page.cf.app].view()
        inferred = page.transformed.execute(db, page.params(args))
        return _fingerprint(_canonical(inferred, self.shape[key]))


WORKLOADS = {w.name: w for w in (Translate, TranslateWorkers,
                                 PageLoadInferred, PageLoadOrm)}


# -- one run ------------------------------------------------------------------


def _phase(workload: Workload, seconds: float, last: bool) -> None:
    """Run operations until ``seconds`` have passed and ``MIN_OPS``
    operations are done (or ``3 * seconds`` have passed).

    A pass cut off at the end of one part resumes in the next, and the
    last part finishes its pass, so a run measures whole passes only.
    Every pass does the same work, so the mix of operations is the same
    in every run.
    """
    gc.collect()
    started = time.perf_counter()

    def over() -> bool:
        elapsed = time.perf_counter() - started
        return elapsed >= 3 * seconds or (
            elapsed >= seconds and workload.attempted >= MIN_OPS)

    while not over():
        workload.run_pass(stop=over)
    if last and workload.rest is not None:
        workload.run_pass()


def _percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb(workers: int, worker_kb: int) -> float:
    """Peak RSS of this process, plus ``workers`` times the largest
    worker's peak (``worker_kb``) when the workload runs workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    extra = workers * worker_kb if workers > 1 else 0
    return (own + extra) / 1024.0


def setup(name: str, seed: int) -> Tuple[Workload, float]:
    """The workload, set up, and the seconds that took."""
    gc.collect()
    started = time.perf_counter()
    workload = WORKLOADS[name]()
    workload.setup(seed)
    return workload, time.perf_counter() - started


def end_to_end(workload: Workload, seconds: float,
               first_setup: Tuple[float, float],
               cold_setup: Callable[[], Tuple[float, float]]
               ) -> Dict[str, Any]:
    """The timed phase of a set-up workload, in ``SETUPS - 1`` equal
    parts, with tracing off.

    Every time is reported at the reference speed (``HostSpeed``); the
    run also prints the times as measured.  ``setup_s`` is the median
    of ``SETUPS`` cold set-ups, each with its imports and given as
    (measured, at reference speed): this process's own
    (``first_setup``), and one in a fresh process (``cold_setup()``)
    after each part of the timed phase.  Every sample pays the
    one-time import, frontend and registry costs, and the samples span
    the machine's speed phases instead of one moment.
    """
    setups = [first_setup]
    parts = SETUPS - 1
    for part in range(parts):
        _phase(workload, seconds / parts, last=part == parts - 1)
        if part == 0:   # only workers have ended so far
            worker_kb = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss
        setups.append(cold_setup())
    samples = workload.speed.samples
    print("as measured: %.3f ops/s, p50 %.3f ms, p95 %.3f ms, cold set-ups"
          " %s s; host at %.3f of the reference speed"
          % (workload.attempted / workload.busy,
             _percentile(workload.latencies, 50) * 1e3,
             _percentile(workload.latencies, 95) * 1e3,
             ", ".join("%.3f" % raw for raw, _ in setups),
             REFERENCE_S / statistics.median(samples)))
    checked, mismatches = workload.check()
    metrics = {
        "throughput_ops_s": (workload.attempted / workload.scaled_busy,
                             "ops/s"),
        "latency_p50_ms": (_percentile(workload.scaled, 50) * 1e3, "ms"),
        "latency_p95_ms": (_percentile(workload.scaled, 95) * 1e3, "ms"),
        "setup_s": (statistics.median(at_ref for _, at_ref in setups),
                    "s"),
        "peak_rss_mb": (_peak_rss_mb(workload.workers, worker_kb), "MB"),
        "success_ratio": ((workload.attempted - workload.failed)
                          / workload.attempted, "ratio"),
        "match_ratio": ((checked - mismatches) / max(checked, 1), "ratio"),
    }
    return _result(workload, checked, mismatches, metrics)


#: per-layer span names, reported as milliseconds of self time per op.
SPAN_METRICS = (
    "frontend.compile", "kernel.interp", "core.vcgen", "core.worlds",
    "core.templates", "core.search", "core.checker", "core.prover",
    "core.qbs", "tor.sqlgen", "service.scheduler", "service.jobs",
    "sql.db", "sql.parse", "sql.plan", "sql.exec", "core.transform",
    "orm.self",
)

#: exact counters, reported per operation.
COUNT_METRICS = (
    "core.eval_executed", "core.combinations_checked", "core.checker_calls",
    "core.prover_calls", "service.job_attempts", "sql.parse_calls",
    "sql.plan_calls", "sql.queries", "sql.nested_queries",
    "sql.rows_scanned", "sql.index_probes", "sql.hash_joins",
    "sql.nested_loop_joins", "orm.objects_hydrated", "orm.queries_issued",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(name: str, seed: int, seconds: float,
           spans_path: Optional[str] = None) -> Dict[str, Any]:
    """Whole passes, alternately untraced and traced, for ``seconds``.

    Alternating pass by pass lets the machine's speed drift fall on
    both sides of the overhead estimate alike, and the estimate
    compares throughputs at the reference speed.  Traced passes are
    whole passes, so per-operation counts are exact.  Set-up time is
    not reported here, so the workload is set up once.
    """
    workload, _ = setup(name, seed)
    tracer = tracing.Tracer()
    ops = {False: 0, True: 0}
    busy = {False: 0.0, True: 0.0}
    gc.collect()
    started = time.perf_counter()
    while True:
        for on in (False, True):
            before = workload.attempted, workload.scaled_busy
            installed = tracing.install(tracer) if on else None
            workload.tracer = tracer if on else None
            try:
                workload.run_pass()
            finally:
                workload.tracer = None
                if installed is not None:
                    installed.remove()
            ops[on] += workload.attempted - before[0]
            busy[on] += workload.scaled_busy - before[1]
        if time.perf_counter() - started >= seconds:
            break
    checked, mismatches = workload.check()

    counts = tracer.counts
    counts["sql.nested_queries"] = counts["sql.plan_calls"] \
        - counts["sql.queries"]
    self_s = tracer.self_times()
    total_s = sum(self_s.values())
    metrics: Dict[str, Tuple[float, str]] = {}
    n = ops[True]
    for span in SPAN_METRICS:
        metrics[span + "_ms"] = (self_s.get(span, 0.0) * 1e3 / n, "ms")
    for counter in COUNT_METRICS:
        metrics[counter] = (counts[counter] / n, "count")
    metrics.update({
        "core.eval_memo_hit_ratio": (
            _ratio(counts["core.eval_memo_hits"],
                   counts["core.eval_requests"]), "ratio"),
        "core.checker_pass_ratio": (
            _ratio(counts["core.checker_passes"],
                   counts["core.checker_calls"]), "ratio"),
        "core.prover_proved_ratio": (
            _ratio(counts["core.prover_proved"],
                   counts["core.prover_calls"]), "ratio"),
        "tor.sqlgen_accept_ratio": (
            _ratio(counts["tor.sqlgen_accepted"],
                   counts["tor.sqlgen_calls"]), "ratio"),
        "service.worker_busy_ratio": (
            _ratio(tracer.durations("service.jobs"),
                   workload.workers * tracer.durations(tracing.ROOT)),
            "ratio"),
        "sql.rows_scanned_per_row_returned": (
            _ratio(counts["sql.rows_scanned"],
                   counts["sql.rows_returned"]), "ratio"),
        "trace.coverage_ratio": (
            _ratio(total_s - self_s.get(tracing.ROOT, 0.0), total_s),
            "ratio"),
        "trace.slowdown_ratio": (
            (ops[False] / busy[False]) / (ops[True] / busy[True]),
            "ratio"),
    })
    if spans_path is not None:
        tracer.write(spans_path)
    return _result(workload, checked, mismatches, metrics)


def _result(workload: Workload, checked: int, mismatches: int,
            metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
    if workload.first_error is not None:
        print("first failure: %s" % workload.first_error, file=sys.stderr)
    print("%d operations, %d failed, %d results checked, %d mismatches"
          % (workload.attempted, workload.failed, checked, mismatches))
    if isinstance(workload, Translate):
        print("statuses per marker: %s"
              % dict(sorted(workload.markers.items())))
    return {
        "correct": mismatches == 0 and workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
