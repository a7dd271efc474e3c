"""Execution substrate for partition-parallel plans.

One entry point, :func:`run_tasks`, maps a list of per-partition thunks
onto the configured backend:

* ``"threads"`` (default) — a thread per partition.  Threads share the
  catalog and the physical operator tree, so joined environments flow
  back with zero copying; CPython's GIL serializes the interpreted
  work, so this backend is correctness plumbing, not speedup (a median
  0.9x of serial, range 0.7-1.2x over 20 runs of the partial-aggregate
  scan in ``benchmarks/bench_parallel_scan.py`` on a 2-vCPU VM).  It stays because it is the
  in-process default and the only in-process rung that abandons a
  hung partition at the deadline.
* ``"pool"`` — the worker-process substrate
  (:class:`repro.service.pool.WorkerPool`): processes forked *once*
  and reused across queries, with table content cached per worker by
  content digest so repeated queries against unchanged data ship only
  plan fragments.  Tasks on this rung carry a picklable
  ``pool_job``/``pool_tables`` payload attached by the physical layer;
  when a task has none the rung reports itself unavailable and the
  ladder falls through to ``threads``.

All backends preserve partition order in the returned list, and all
degrade to an inline loop for a single task, so ``parallel=1`` and
serial execution share one code path.

**Degradation ladder.**  Substrate failures — a worker crashing past
the pool's retry budget, a payload that will not decode, a pool that
cannot start — never fail the query.  :func:`run_tasks` classifies them
through the shared ``repro.service.faults`` taxonomy and retries the
*whole task list* one rung down: ``pool → threads → serial``.  Tasks
build a fresh per-partition context on every invocation, so a rerun is
idempotent and the results stay row/column/stats-identical to serial
execution (the mode-flags-not-forks invariant).  Application
exceptions and deadline expiry propagate immediately: the ladder only
absorbs substrate faults.  An optional
:class:`~repro.service.faults.Deadline` bounds the whole fan-out; at
expiry unfinished partitions are abandoned and a classified
:class:`~repro.service.faults.DeadlineExceeded` surfaces instead of a
block.  An installed :class:`~repro.service.faults.FaultPlan` perturbs
each task by its deterministic partition key (``part:<index>``) and
attempt number, which is how the chaos suites drive this path;
attempts count up across rungs, so a rung below the pool starts after
the last attempt the pool's retries used.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Any, Callable, List, Optional, Sequence

#: The backends :class:`~repro.sql.executor.ExecutorOptions` accepts.
BACKENDS = ("threads", "pool")

#: Next rung down for each substrate; ``None`` ends the ladder.
_NEXT_RUNG = {"pool": "threads", "threads": "serial", "serial": None}


def usable_cores() -> int:
    """CPU cores this process may actually run on.

    The scheduling affinity mask when the platform exposes it (CI
    containers often restrict it below ``os.cpu_count()``), the core
    count otherwise.  This is the bound ``parallel="auto"`` and the
    benchmark floors use.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_tasks(tasks: Sequence[Callable[[], Any]],
              backend: str = "threads",
              deadline: Optional[Any] = None,
              on_degrade: Optional[Callable[[str, str, Exception], None]]
              = None) -> List[Any]:
    """Run thunks, one per partition; results in partition order.

    ``on_degrade(from_rung, to_rung, fault)`` is called once per rung
    the ladder falls (EXPLAIN ANALYZE surfaces it); ``deadline`` is a
    :class:`~repro.service.faults.Deadline` bounding the whole fan-out.
    """
    if backend not in BACKENDS:
        raise ValueError("unknown parallel backend %r (expected one of %s)"
                         % (backend, ", ".join(BACKENDS)))
    tasks = list(tasks)
    # Imported lazily: repro.sql must stay importable without touching
    # the service layer (which itself imports repro.sql).
    from repro.service import faults

    plan = faults.installed_plan()
    if len(tasks) <= 1 and plan is None and deadline is None:
        return [task() for task in tasks]
    rung = backend
    attempt = 1
    while True:
        try:
            if rung == "pool":
                # The pool applies the fault plan worker-side — a
                # long-lived worker never inherits a plan installed
                # after it forked — so tasks go through unperturbed.
                return _run_pool(tasks, deadline, plan, attempt, faults)
            active = _perturbed(tasks, plan, attempt, faults) \
                if plan is not None else tasks
            if rung == "threads":
                return _run_threads(active, deadline, faults)
            results = []
            for task in active:
                if deadline is not None:
                    deadline.check("serial partition")
                results.append(task())
            return results
        except (faults.WorkerCrash, faults.CorruptPayload,
                faults.SubstrateUnavailable) as fault:
            next_rung = _NEXT_RUNG[rung]
            if next_rung is None:
                raise
            if on_degrade is not None:
                on_degrade(rung, next_rung, fault)
            rung = next_rung
            attempt = getattr(fault, "attempts", attempt) + 1


def _run_threads(tasks: Sequence[Callable[[], Any]],
                 deadline, faults) -> List[Any]:
    try:
        pool = ThreadPoolExecutor(max_workers=len(tasks) or 1)
    except Exception as exc:  # pragma: no cover - thread limit reached
        raise faults.SubstrateUnavailable(
            "thread pool unavailable: %s" % exc)
    futures = []
    try:
        try:
            for task in tasks:
                futures.append(pool.submit(task))
        except RuntimeError as exc:  # pragma: no cover - cannot start
            raise faults.SubstrateUnavailable(
                "could not start partition thread: %s" % exc)
        results = []
        for future in futures:
            remaining = None if deadline is None else deadline.remaining()
            try:
                results.append(future.result(remaining))
            except _FutureTimeout:
                raise faults.DeadlineExceeded(
                    "parallel deadline expired with %d/%d partitions "
                    "unfinished" % (len(futures) - len(results),
                                    len(futures)))
        return results
    finally:
        for future in futures:
            future.cancel()
        # Never join: a partition hung past the deadline must not keep
        # the query blocked (the abandoned thread is left to finish or
        # die with the process).
        pool.shutdown(wait=False)


def _perturbed(tasks: Sequence[Callable[[], Any]], plan, attempt: int,
               faults) -> List[Callable[[], Any]]:
    """Wrap each task with the installed fault plan, keyed by its
    deterministic partition index; the ladder attempt number lets
    plans heal after ``faulty_attempts``."""
    wrapped = []
    for index, task in enumerate(tasks):
        def chaotic(task=task, key="part:%d" % index):
            poisoned = faults.perturb(plan, key, attempt)
            if poisoned is not None:
                return poisoned
            return task()
        wrapped.append(chaotic)
    return wrapped


def _run_pool(tasks: Sequence[Callable[[], Any]], deadline, plan,
              attempt: int, faults) -> List[Any]:
    """Dispatch the partition tasks' picklable ``pool_job`` payloads to
    the persistent worker pool.

    The physical layer attaches a ``pool_job`` (plan fragment + table
    digests + estimate) and a shared ``pool_tables`` digest->Table map
    to every task it builds for this backend; a task without one (a
    direct ``run_tasks`` caller, a non-partition thunk) cannot cross a
    process boundary, so the rung declares itself unavailable and the
    ladder falls through to ``threads``.
    """
    jobs = [getattr(task, "pool_job", None) for task in tasks]
    if any(job is None for job in jobs):
        raise faults.SubstrateUnavailable(
            "pool backend needs picklable partition jobs "
            "(%d of %d tasks carry none)"
            % (sum(1 for job in jobs if job is None), len(jobs)))
    tables = getattr(tasks[0], "pool_tables", None) or {}
    from repro.service.pool import get_pool

    return get_pool().run_jobs(jobs, tables, deadline=deadline,
                               plan=plan, attempt=attempt)
