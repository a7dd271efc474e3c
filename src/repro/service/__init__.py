"""The QBS service layer: parallel, cached corpus runs.

Modules:

* :mod:`repro.service.jobs` — content-addressed job model and JSON
  result transport;
* :mod:`repro.service.cache` — persistent on-disk result store;
* :mod:`repro.service.scheduler` — QBS batch fan-out with per-job
  timeouts, retries and an in-process path for ``workers=1``;
* :mod:`repro.service.pool` — :class:`~repro.service.pool.WorkerPool`,
  the one worker-process substrate: forked workers, one dispatch loop
  (crash respawn, timeouts, deadline, retries) and per-worker table
  caching.  The scheduler forks one per run; the SQL engine's
  partition-parallel queries share one process-wide;
* :mod:`repro.service.faults` — the resilience layer both substrates
  share: the failure taxonomy, :class:`RetryPolicy`,
  :class:`Deadline`, and the deterministic fault-injection harness
  (:class:`FaultPlan`) the chaos suites drive;
* :mod:`repro.service.cli` — the ``repro-qbs`` command.

Invariants every scheduler/cache change must preserve (pinned by
``tests/service/`` and ``benchmarks/bench_qbs_parallel.py``):

* **outcome identity** — parallel, sequential and cache-served runs of
  the same batch produce equal outcome fingerprints (per-fragment
  status, Appendix-A marker, SQL text; see
  ``scheduler.outcome_fingerprint``).  Workers return JSON payloads
  and the sequential path round-trips the same serialization, so no
  mode ever sees richer data than another.
* **submission-order delivery** — outcomes are yielded in the order
  jobs were submitted, regardless of completion order; streaming
  consumers see the next in-order outcome as soon as it exists.
* **honest timeouts** — a job is reported timed out only if it ran
  past its budget, never because it queued behind someone else's hung
  job; timed-out and crashed workers become *failed jobs* while the
  rest of the batch completes.
* **content-hash invalidation** — cache keys hash the compiled kernel
  fragment plus the full ``QBSOptions`` fingerprint, so edits
  invalidate exactly the affected entries and corrupt entries read as
  misses.
* **classified failure** — every failed job carries a final taxonomy
  code (``timeout | crash | corrupt_payload | transient_exhausted |
  permanent``); retryable failures retry under the attached
  :class:`RetryPolicy` (deterministic backoff, per-job circuit
  breaker) and fault-injected runs converge to the fault-free outcome
  fingerprint (``tests/service/test_faults.py``).
"""

from repro.service.cache import ResultCache, default_cache_dir
from repro.service.faults import Deadline, FaultPlan, RetryPolicy
from repro.service.jobs import QBSJob, job_for, jobs_for
from repro.service.scheduler import JobOutcome, RunReport, Scheduler

__all__ = [
    "Deadline",
    "FaultPlan",
    "JobOutcome",
    "QBSJob",
    "ResultCache",
    "RetryPolicy",
    "RunReport",
    "Scheduler",
    "default_cache_dir",
    "job_for",
    "jobs_for",
]
