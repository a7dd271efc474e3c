"""Execution substrate for partition-parallel plans.

One entry point, :func:`run_tasks`, runs a list of per-partition thunks
on the worker-process substrate
(:class:`repro.service.pool.WorkerPool`): the process-wide pool of
:func:`~repro.service.pool.get_pool`, forked *once* and reused across
queries, with table content cached per worker by content digest so
repeated queries against unchanged data ship only plan fragments.
Each task carries a picklable ``pool_job``/``pool_tables`` payload
attached by the physical layer; a task without one (a plain thunk)
cannot cross a process boundary, so the pool reports itself
unavailable and the tasks run serially.  Results come back in
partition order, and a single task runs inline, so ``parallel=1`` and
serial execution share one code path.

**Degradation ladder.**  Substrate failures — a worker crashing past
the pool's retry budget, a payload that will not decode, a pool that
cannot start (no ``fork`` on this platform, or a daemonic parent) —
never fail the query.  :func:`run_tasks` classifies them through the
shared ``repro.service.faults`` taxonomy and reruns the *whole task
list* one rung down: ``pool → serial``.  Tasks build a fresh
per-partition context on every invocation, so a rerun is idempotent
and the results stay row/column/stats-identical to serial execution.
Application exceptions and deadline expiry propagate immediately: the
ladder only absorbs substrate faults.  An optional
:class:`~repro.service.faults.Deadline` bounds the whole fan-out: the
pool abandons a hung partition at expiry and raises a classified
:class:`~repro.service.faults.DeadlineExceeded`; the serial rung can
only check the deadline between partitions.  An installed
:class:`~repro.service.faults.FaultPlan` perturbs each task by its
deterministic partition key (``part:<index>``) and attempt number,
which is how the chaos suites drive this path; attempts count on
across rungs, so the serial rung starts after the last attempt the
pool's retries used.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence


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
              deadline: Optional[Any] = None,
              on_degrade: Optional[Callable[[str, str, Exception], None]]
              = None) -> List[Any]:
    """Run thunks, one per partition; results in partition order.

    ``on_degrade(from_rung, to_rung, fault)`` is called if the ladder
    falls (EXPLAIN ANALYZE surfaces it); ``deadline`` is a
    :class:`~repro.service.faults.Deadline` bounding the whole fan-out.
    """
    tasks = list(tasks)
    # Imported lazily: repro.sql must stay importable without touching
    # the service layer (which itself imports repro.sql).
    from repro.service import faults

    plan = faults.installed_plan()
    if not tasks or (len(tasks) == 1 and plan is None and deadline is None):
        return [task() for task in tasks]
    try:
        # The pool applies the fault plan worker-side — a long-lived
        # worker never inherits a plan installed after it forked — so
        # tasks go through unperturbed.
        return _run_pool(tasks, deadline, plan, faults)
    except (faults.WorkerCrash, faults.CorruptPayload,
            faults.SubstrateUnavailable) as fault:
        if on_degrade is not None:
            on_degrade("pool", "serial", fault)
        attempt = getattr(fault, "attempts", 1) + 1
    if plan is not None:
        tasks = _perturbed(tasks, plan, attempt, faults)
    results = []
    for task in tasks:
        if deadline is not None:
            deadline.check("serial partition")
        results.append(task())
    return results


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
              faults) -> List[Any]:
    """Dispatch the partition tasks' picklable ``pool_job`` payloads to
    the process-wide worker pool.

    The physical layer attaches a ``pool_job`` (plan fragment + table
    digests + estimate) and a shared ``pool_tables`` digest->Table map
    to every task it builds; a task without one (a direct
    ``run_tasks`` caller, a non-partition thunk) cannot cross a
    process boundary, so the rung declares itself unavailable and the
    ladder falls through to serial.
    """
    jobs = [getattr(task, "pool_job", None) for task in tasks]
    if any(job is None for job in jobs):
        raise faults.SubstrateUnavailable(
            "the pool needs picklable partition jobs "
            "(%d of %d tasks carry none)"
            % (sum(1 for job in jobs if job is None), len(jobs)))
    tables = getattr(tasks[0], "pool_tables", None) or {}
    from repro.service.pool import get_pool

    return get_pool().run_jobs(jobs, tables, deadline=deadline, plan=plan)
