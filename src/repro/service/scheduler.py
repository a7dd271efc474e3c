"""Fan QBS jobs out over forked worker processes.

Fragments are independent jobs (the engine is deterministic per
fragment), so the scheduler's only obligations are

* **outcome identity** — a parallel run must produce, fragment for
  fragment, the same status / SQL / marker a sequential run produces.
  Workers return JSON payloads (no AST crosses the process boundary)
  and the sequential path round-trips through the same serialization,
  so both modes yield results of identical shape and content;
* **order stability** — outcomes are delivered in submission order
  regardless of completion order;
* **fault tolerance** — failures are classified into the
  ``repro.service.faults`` taxonomy (``timeout | crash |
  corrupt_payload | transient_exhausted | permanent``) and carried on
  :class:`JobOutcome`.  Retryable failures are retried under a
  :class:`~repro.service.faults.RetryPolicy` with deterministic
  backoff; the attempt bound is the per-job circuit breaker, so a
  poison job fails permanently after K attempts instead of
  respawn-looping.  ``workers>1`` runs on a
  :class:`~repro.service.pool.WorkerPool` forked for the run and
  closed at its end — the repo's one worker-process substrate, which
  replaces crashed and timed-out workers while the rest of the batch
  completes and turns an optional whole-run deadline into classified
  timeouts instead of a block;
* **graceful degradation** — ``workers=1`` runs in-process with no
  multiprocessing machinery at all, and so does a ``workers>1`` run
  whose pool cannot start (no fork on this platform, a daemonic
  parent).

Results are read through / written to a :class:`ResultCache` when one
is attached, which is what makes corpus re-runs incremental.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.core.qbs import QBSOptions, QBSResult
from repro.corpus.registry import CorpusFragment
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service import faults
from repro.service.cache import ResultCache
from repro.service.faults import (
    TIMEOUT,
    Deadline,
    RetryPolicy,
    classify_exception,
    final_failure_kind,
)
from repro.service.jobs import (
    PoolJob,
    QBSJob,
    execute_job,
    job_for,
    options_payload,
    result_from_payload,
)
from repro.service.pool import Finished, WorkerPool

#: worker entry indirection: tests (and embedders) can swap the runner;
#: the pool a run forks inherits the swap.
_JOB_RUNNER = execute_job

# Scheduler metrics, recorded parent-side from each JobOutcome (pool
# workers are separate processes; everything observable already rides
# home on the outcome).  Job *spans* are likewise built parent-side
# when the run happens under an ambient trace — see
# :meth:`Scheduler._observe`.
_JOBS = obs_metrics.counter(
    "repro_jobs_total", "scheduler job outcomes by state")
_JOB_ATTEMPTS = obs_metrics.counter(
    "repro_job_attempts_total", "attempts consumed across all jobs")
_JOB_RETRIES = obs_metrics.counter(
    "repro_job_retries_total", "jobs that needed more than one attempt")
_JOB_FAILURES = obs_metrics.counter(
    "repro_job_failures_total", "failed jobs by classified kind")
_JOB_SECONDS = obs_metrics.histogram(
    "repro_job_seconds", "per-job wall clock (cache hits excluded)")
_BACKOFF_WAITS = obs_metrics.counter(
    "repro_backoff_waits_total", "retry backoff waits")
_BACKOFF_SECONDS = obs_metrics.counter(
    "repro_backoff_seconds_total", "seconds committed to retry backoff")
_DEADLINE_MARGIN = obs_metrics.gauge(
    "repro_deadline_margin_seconds",
    "whole-run deadline margin when the last outcome was delivered")


@dataclass
class JobOutcome:
    """What the scheduler reports for one job."""

    job: QBSJob
    state: str                        # "done" | "failed"
    result: Optional[QBSResult] = None
    from_cache: bool = False
    elapsed_seconds: float = 0.0
    error: str = ""
    #: final taxonomy code when failed (``faults.FAILURE_KINDS``);
    #: ``None`` on success.
    failure_kind: Optional[str] = None
    #: attempts consumed (0 = never started, e.g. deadline hit first).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.state == "done"


def outcome_fingerprint(outcomes: List["JobOutcome"]) -> List[tuple]:
    """The identity contract runs are judged on, one tuple per job:
    (fragment id, QBS status, Appendix-A marker, SQL text).

    Parallel, sequential and cache-served runs of the same batch must
    produce equal fingerprints; the benchmark and the test suite both
    assert through this single definition.
    """
    out = []
    for outcome in outcomes:
        result = outcome.result
        out.append((outcome.job.fragment_id,
                    result.status.value if result else "job-failed",
                    result.status.marker if result else "!",
                    result.sql.sql if result and result.sql else None))
    return out


@dataclass
class RunReport:
    """Aggregate accounting for one scheduler run."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.from_cache)

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.ok and not o.from_cache)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def retried(self) -> int:
        """Jobs that needed more than one attempt."""
        return sum(1 for o in self.outcomes if o.attempts > 1)


class Scheduler:
    """Run corpus fragments through QBS, optionally in parallel."""

    def __init__(self, workers: int = 1,
                 job_timeout: Optional[float] = None,
                 cache: Optional[ResultCache] = None,
                 options: Optional[QBSOptions] = None,
                 refresh: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 deadline: Optional[float] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.job_timeout = job_timeout
        self.cache = cache
        self.options = options or QBSOptions()
        #: recompute even on cache hit (results are re-stored).
        self.refresh = refresh
        #: retry/backoff/circuit-breaker policy; the default keeps the
        #: seed behaviour (one attempt, no retries).
        self.retry = retry if retry is not None else faults.NO_RETRY
        #: whole-run budget in seconds; unfinished work past it fails
        #: with a classified timeout instead of blocking.
        self.deadline_seconds = deadline

    # -- public API --------------------------------------------------------

    def run(self, fragments: List[CorpusFragment]) -> RunReport:
        """Run a batch; outcomes come back in submission order."""
        start = time.perf_counter()
        outcomes = list(self.run_iter(fragments))
        return RunReport(outcomes=outcomes,
                         wall_seconds=time.perf_counter() - start)

    def run_iter(self, fragments: List[CorpusFragment]
                 ) -> Iterator[JobOutcome]:
        """Yield outcomes in submission order as they become available.

        Every outcome is observed on its way out (:meth:`_observe`):
        metrics counters always, and — when the run happens under an
        ambient trace — one ``job`` span per outcome, parented into
        the caller's tree in submission order and closed with the
        outcome's authoritative elapsed time.
        """
        parent_span = obs_trace.current_span()
        run_started = time.perf_counter()
        jobs = [job_for(cf, self.options) for cf in fragments]
        cached: Dict[int, JobOutcome] = {}
        pending: List[int] = []
        for index, job in enumerate(jobs):
            payload = None
            if self.cache is not None and not self.refresh:
                payload = self.cache.load(job)
            if payload is not None:
                cached[index] = JobOutcome(
                    job=job, state="done",
                    result=result_from_payload(payload),
                    from_cache=True,
                    elapsed_seconds=payload.get("elapsed_seconds", 0.0))
            else:
                pending.append(index)

        if not pending:
            for i in range(len(jobs)):
                self._observe(cached[i], parent_span, run_started)
                yield cached[i]
            return

        if self.workers == 1:
            compute = self._run_inline(jobs, pending)
        else:
            compute = self._run_pool(jobs, pending)

        # Interleave back into submission order.  The pool path computes
        # lazily, so streaming consumers see outcomes as soon as the
        # next in-order job finishes.
        try:
            for index in range(len(jobs)):
                outcome = cached[index] if index in cached \
                    else next(compute)
                self._observe(outcome, parent_span, run_started)
                yield outcome
        finally:
            compute.close()     # a pool run closes its workers

    def _observe(self, outcome: JobOutcome, parent_span,
                 run_started: float) -> None:
        """Record one outcome's metrics and (if tracing) its span.

        Runs parent-side for both execution strategies — the pool's
        workers are separate processes, but everything worth recording
        already crosses the pipe on the outcome: state, cache
        provenance, attempts, the classified failure kind and the
        honest per-job elapsed time (used via :meth:`Span.finish`
        rather than re-timing).
        """
        _JOBS.inc(state=outcome.state)
        _JOB_ATTEMPTS.inc(outcome.attempts)
        if outcome.attempts > 1:
            # Every retry waited out its policy backoff first.
            _JOB_RETRIES.inc()
            _BACKOFF_WAITS.inc(outcome.attempts - 1)
            _BACKOFF_SECONDS.inc(sum(self.retry.backoff(attempt)
                                     for attempt in
                                     range(1, outcome.attempts)))
        if outcome.failure_kind is not None:
            _JOB_FAILURES.inc(kind=outcome.failure_kind)
        if not outcome.from_cache:
            _JOB_SECONDS.observe(outcome.elapsed_seconds)
        margin = None
        if self.deadline_seconds is not None:
            margin = self.deadline_seconds \
                - (time.perf_counter() - run_started)
            _DEADLINE_MARGIN.set(margin)
        if parent_span is not None:
            span = parent_span.child(
                "job", fragment=outcome.job.fragment_id,
                state=outcome.state, from_cache=outcome.from_cache,
                attempts=outcome.attempts)
            if outcome.failure_kind is not None:
                span.tag(failure_kind=outcome.failure_kind)
            if margin is not None:
                span.tag(deadline_margin_seconds=round(margin, 6))
            span.finish(outcome.elapsed_seconds)

    # -- execution strategies ---------------------------------------------

    def _run_inline(self, jobs: List[QBSJob], pending: List[int]
                    ) -> Iterator[JobOutcome]:
        """In-process: no pool, no pickling overhead — but the same
        retry/backoff/deadline semantics as the pool path."""
        opts = options_payload(self.options)
        retry = self.retry
        deadline = Deadline.after(self.deadline_seconds)
        for index in pending:
            job = jobs[index]
            if deadline is not None and deadline.expired():
                yield JobOutcome(
                    job=job, state="failed",
                    error="deadline exceeded before start",
                    failure_kind=TIMEOUT, attempts=0)
                continue
            attempt = 0
            start = time.perf_counter()
            while True:
                attempt += 1
                faults.set_current_attempt(attempt)
                try:
                    payload = _JOB_RUNNER(job.fragment_id, opts)
                except Exception as exc:  # job bugs become failed jobs
                    kind = classify_exception(exc)
                    if retry.allows_retry(kind, attempt) and \
                            (deadline is None or not deadline.expired()):
                        time.sleep(retry.backoff(attempt))
                        continue
                    yield JobOutcome(
                        job=job, state="failed",
                        elapsed_seconds=time.perf_counter() - start,
                        error="%s: %s" % (type(exc).__name__, exc),
                        failure_kind=final_failure_kind(kind),
                        attempts=attempt)
                    break
                yield self._finish(job, payload,
                                   time.perf_counter() - start,
                                   attempts=attempt)
                break

    def _run_pool(self, jobs: List[QBSJob], pending: List[int]
                  ) -> Iterator[JobOutcome]:
        """Fork a :class:`~repro.service.pool.WorkerPool` for this run
        and deliver its outcomes in submission order.

        Forked per run, the workers inherit everything set up before
        ``run``: a swapped ``_JOB_RUNNER``, an installed fault plan,
        tracing wrappers.  The pool owns dispatch, per-job timeouts,
        the whole-run deadline, crash respawn and retries; each final
        failure becomes a classified failed outcome while the rest of
        the batch carries on.  Where the workers cannot start (no fork
        on this platform, or a daemonic parent, which may not fork) the
        batch runs inline instead, with the same outcomes.
        """
        pool = None
        try:
            pool = WorkerPool(size=min(self.workers, len(pending)),
                              retry=self.retry)
            pool.ensure_workers()
        except faults.SubstrateUnavailable:
            if pool is not None:
                pool.close()
            yield from self._run_inline(jobs, pending)
            return
        opts = options_payload(self.options)
        stream = pool.stream(
            [PoolJob(jobs[index].fragment_id, opts) for index in pending],
            deadline=Deadline.after(self.deadline_seconds),
            job_timeout=self.job_timeout)
        outcomes: Dict[int, JobOutcome] = {}
        next_pos = 0
        try:
            for done in stream:
                index = pending[done.index]
                outcomes[index] = self._outcome(jobs[index], done)
                # Yield the finished in-order prefix.
                while next_pos < len(pending) \
                        and pending[next_pos] in outcomes:
                    yield outcomes.pop(pending[next_pos])
                    next_pos += 1
        finally:
            stream.close()
            pool.close()

    def _outcome(self, job: QBSJob, done: Finished) -> JobOutcome:
        if done.error is None:
            return self._finish(job, done.value, done.seconds,
                                attempts=done.attempts)
        return JobOutcome(
            job=job, state="failed", elapsed_seconds=done.seconds,
            error=str(done.error),
            failure_kind=final_failure_kind(classify_exception(done.error)),
            attempts=done.attempts)

    def _finish(self, job: QBSJob, payload: Dict[str, Any],
                elapsed: float, attempts: int = 1) -> JobOutcome:
        if self.cache is not None:
            self.cache.store(job, payload)
        return JobOutcome(job=job, state="done",
                          result=result_from_payload(payload),
                          elapsed_seconds=elapsed, attempts=attempts)
