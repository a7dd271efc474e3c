"""Chaos suite: the degradation ladder under deterministic faults.

Substrate failures inside a partition-parallel query — a pool worker
crashing past its retry budget, a payload that will not unpickle, a
pool that cannot start, a hung partition — must never change the
answer: the ladder falls ``pool → serial`` and the degraded query
stays row/column/stats-identical to serial execution, with the fall
visible in EXPLAIN ANALYZE and counted in ``stats.degradations``.
Application errors and deadline expiry are *not* absorbed: they
propagate with their classification.
"""

import time

import pytest

from repro.service import faults
from repro.service.faults import (
    DeadlineExceeded,
    FaultPlan,
    SubstrateUnavailable,
    WorkerCrash,
)
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions
from repro.sql.plan.parallel import run_tasks

# -- run_tasks ladder (no SQL involved) ----------------------------------------


def _times_ten(part):
    return part * 10


def _boom_on_one(part):
    if part == 1:
        raise ValueError("application bug, not a substrate fault")
    return part


class _Job:
    """A picklable pool job computing ``fn(part)``."""

    est = 0
    digest_map = {}

    def __init__(self, part, fn):
        self.part = part
        self.fn = fn

    def run_in_worker(self, cache):
        return self.fn(self.part)


def _tasks(n=3):
    """Plain thunks: they carry no pool job, so the pool rung reports
    itself unavailable and they run serially."""
    return [lambda i=i: _times_ten(i) for i in range(n)]


def _pool_tasks(n=3, fn=_times_ten):
    """Thunks computing ``fn(part)`` that also carry their pool jobs."""
    tasks = [lambda i=i: fn(i) for i in range(n)]
    for part, task in enumerate(tasks):
        task.pool_job = _Job(part, fn)
    return tasks


def _run_logged(tasks, **kwargs):
    falls = []
    results = run_tasks(tasks, on_degrade=lambda f, t, e:
                        falls.append((f, t, type(e).__name__)), **kwargs)
    return results, falls


def test_crash_past_the_pool_budget_degrades_to_serial():
    # Attempts 1-3 crash the pool worker (its whole retry budget);
    # the serial rung runs attempt 4, where the plan has healed.
    plan = FaultPlan(faults={"part:1": faults.CRASH}, faulty_attempts=3)
    with faults.injected(plan):
        results, falls = _run_logged(_pool_tasks())
    assert results == [0, 10, 20]
    assert falls == [("pool", "serial", "WorkerCrash")]


def test_tasks_without_pool_jobs_run_serially():
    # The pool rung is unavailable (attempt 1), so the serial rung
    # runs attempt 2: a fault lasting one attempt has healed, one
    # lasting two crashes the last rung and propagates.
    plan = FaultPlan(faults={"part:1": faults.CRASH})
    with faults.injected(plan):
        results, falls = _run_logged(_tasks())
    assert results == [0, 10, 20]
    assert falls == [("pool", "serial", "SubstrateUnavailable")]
    plan = FaultPlan(faults={"part:1": faults.CRASH}, faulty_attempts=2)
    with faults.injected(plan):
        with pytest.raises(WorkerCrash, match="attempt 2"):
            run_tasks(_tasks())


def test_corrupt_payload_from_pool_worker_degrades():
    # In a pool worker the injection returns a CorruptResult, which
    # explodes on the driver's unpickle — transport corruption, not an
    # application error.  It outlasts the pool's three attempts, so
    # the ladder absorbs it, and serial (attempt 4) has healed.
    plan = FaultPlan(faults={"part:2": faults.CORRUPT_PAYLOAD},
                     faulty_attempts=3)
    with faults.injected(plan):
        results, falls = _run_logged(_pool_tasks())
    assert results == [0, 10, 20]
    assert falls == [("pool", "serial", "CorruptPayload")]


def test_poison_partition_exhausts_the_ladder():
    plan = FaultPlan(poison={"part:0": faults.CRASH})
    with faults.injected(plan):
        with pytest.raises(WorkerCrash, match="attempt 4"):
            run_tasks(_pool_tasks())


def test_application_errors_are_not_absorbed():
    falls = []
    with pytest.raises(ValueError, match="application bug"):
        run_tasks(_pool_tasks(fn=_boom_on_one),
                  on_degrade=lambda f, t, e: falls.append(f))
    assert falls == []      # the ladder never moved


def test_hung_partition_surfaces_classified_deadline():
    from repro.service.faults import Deadline

    plan = FaultPlan(faults={"part:1": faults.HANG}, hang_seconds=30.0)
    start = time.perf_counter()
    with faults.injected(plan):
        with pytest.raises(DeadlineExceeded):
            run_tasks(_pool_tasks(), deadline=Deadline.after(0.3))
    assert time.perf_counter() - start < 10     # abandoned, not joined


def test_ladder_is_deterministic():
    plan = FaultPlan(faults={"part:1": faults.CRASH}, faulty_attempts=3)
    runs = []
    for _ in range(2):
        with faults.injected(plan):
            runs.append(_run_logged(_pool_tasks()))
    assert runs[0] == runs[1]


def test_fault_free_run_never_degrades():
    assert _run_logged(_pool_tasks()) == ([0, 10, 20], [])


# -- whole queries under injected faults ---------------------------------------


def _stats_tuple(stats):
    return (stats.rows_scanned, stats.index_probes, stats.hash_joins,
            stats.nested_loop_joins, stats.index_scans, stats.full_scans)


@pytest.fixture(scope="module")
def chaos_db():
    db = Database()
    db.create_table("r", ("id", "a"))
    db.create_table("s", ("id", "b"))
    db.create_index("s", "b")
    db.insert_many("r", ({"id": i, "a": i % 5} for i in range(23)))
    db.insert_many("s", ({"id": i, "b": i % 5} for i in range(11)))
    return db


JOIN = ("SELECT t0.id, t1.id FROM r t0, s t1 WHERE t0.a = t1.b "
        "ORDER BY t0.id, t1.id")
GROUPED = ("SELECT t0.a, COUNT(*) AS n, SUM(t0.id) AS tot "
           "FROM r t0 GROUP BY t0.a ORDER BY n DESC")


def _assert_identical_to_serial(db, view, sql, expect_degraded=True):
    serial = db.execute(sql)
    result = view.execute(sql)
    assert list(result.rows) == list(serial.rows)
    assert result.columns == serial.columns
    assert _stats_tuple(result.stats) == _stats_tuple(serial.stats)
    assert serial.stats.degradations == 0
    if expect_degraded:
        assert result.stats.degradations >= 1
    else:
        assert result.stats.degradations == 0
    return result


@pytest.mark.parametrize("sql", [JOIN, GROUPED], ids=["join", "grouped"])
def test_degraded_query_identical_to_serial(chaos_db, sql):
    # Attempts 1-3 exhaust the pool; serial runs attempt 4, healed.
    plan = FaultPlan(faults={"part:1": faults.CRASH}, faulty_attempts=3)
    view = chaos_db.view(ExecutorOptions(parallel=3))
    with faults.injected(plan):
        result = _assert_identical_to_serial(chaos_db, view, sql)
        text = view.explain(sql, analyze=True)
    assert result.stats.degradations == 1
    assert "degraded=pool->serial, degrade_kind=crash" in text


def test_unavailable_pool_runs_the_query_serially(chaos_db, monkeypatch):
    """Where the pool cannot start (no fork, a daemonic parent), a
    K > 1 query runs its partitions serially, once."""
    from repro.service import pool as pool_mod

    def unavailable():
        raise SubstrateUnavailable("no pool here")

    monkeypatch.setattr(pool_mod, "get_pool", unavailable)
    view = chaos_db.view(ExecutorOptions(parallel=3))
    for sql in (JOIN, GROUPED):
        result = _assert_identical_to_serial(chaos_db, view, sql)
        assert result.stats.degradations == 1
        text = view.explain(sql, analyze=True)
        assert "degraded=pool->serial, degrade_kind=crash" in text


def test_corrupt_partition_payload_still_identical(chaos_db):
    # Corrupt on every pool attempt (1-3), so the ladder falls a rung.
    plan = FaultPlan(faults={"part:2": faults.CORRUPT_PAYLOAD},
                     faulty_attempts=3)
    view = chaos_db.view(ExecutorOptions(parallel=3))
    with faults.injected(plan):
        result = _assert_identical_to_serial(chaos_db, view, GROUPED)
    assert result.stats.degradations == 1


def test_fault_free_parallel_reports_no_degradation(chaos_db):
    view = chaos_db.view(ExecutorOptions(parallel=3))
    _assert_identical_to_serial(chaos_db, view, JOIN,
                                expect_degraded=False)
    text = view.explain(JOIN, analyze=True)
    assert "degraded=" not in text


def test_chaotic_query_is_deterministic(chaos_db):
    plan = FaultPlan(faults={"part:1": faults.CRASH})
    view = chaos_db.view(ExecutorOptions(parallel=3))
    snapshots = []
    for _ in range(2):
        with faults.injected(plan):
            result = view.execute(JOIN)
        snapshots.append((list(result.rows), result.columns,
                          _stats_tuple(result.stats),
                          result.stats.degradations))
    assert snapshots[0] == snapshots[1]


def test_executor_deadline_fails_hung_query_fast(chaos_db):
    plan = FaultPlan(faults={"part:1": faults.HANG}, hang_seconds=30.0)
    view = chaos_db.view(ExecutorOptions(parallel=3,
                                         deadline_seconds=0.3))
    start = time.perf_counter()
    with faults.injected(plan):
        with pytest.raises(DeadlineExceeded):
            view.execute(JOIN)
    assert time.perf_counter() - start < 10


def test_executor_deadline_is_invisible_when_met(chaos_db):
    view = chaos_db.view(ExecutorOptions(parallel=3,
                                         deadline_seconds=30.0))
    _assert_identical_to_serial(chaos_db, view, JOIN,
                                expect_degraded=False)
