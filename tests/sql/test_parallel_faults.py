"""Chaos suite: the degradation ladder under deterministic faults.

Substrate failures inside a partition-parallel query — a pool worker
crashing past its retry budget, a payload that will not unpickle, a
hung partition — must never change the answer: the ladder falls
``pool → threads → serial`` and the degraded query stays
row/column/stats-identical to serial execution, with the fall visible
in EXPLAIN ANALYZE and counted in ``stats.degradations``.  Application errors and deadline expiry are
*not* absorbed: they propagate with their classification.
"""

import time

import pytest

from repro.service import faults
from repro.service.faults import (
    DeadlineExceeded,
    FaultPlan,
    WorkerCrash,
)
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions
from repro.sql.plan.parallel import run_tasks

# -- run_tasks ladder (no SQL involved) ----------------------------------------


def _tasks(n=3):
    return [lambda i=i: i * 10 for i in range(n)]


class _TimesTen:
    """A picklable pool job computing the same value as ``_tasks``."""

    est = 0
    digest_map = {}

    def __init__(self, part):
        self.part = part

    def run_in_worker(self, cache):
        return self.part * 10


def _pool_tasks(n=3):
    """``_tasks`` thunks that also carry their pool jobs."""
    tasks = _tasks(n)
    for part, task in enumerate(tasks):
        task.pool_job = _TimesTen(part)
    return tasks


def test_threads_degrade_to_serial_on_injected_crash():
    plan = FaultPlan(faults={"part:1": faults.CRASH})
    falls = []
    with faults.injected(plan):
        results = run_tasks(_tasks(), backend="threads",
                            on_degrade=lambda f, t, e: falls.append((f, t)))
    assert results == [0, 10, 20]
    assert falls == [("threads", "serial")]


def test_pool_degrades_all_the_way_down():
    # Plain thunks carry no pool job, so the pool rung is unavailable
    # (attempt 1); faulty_attempts=2 makes the crash survive the
    # threads rung too, so the ladder must fall twice before it heals.
    plan = FaultPlan(faults={"part:1": faults.CRASH}, faulty_attempts=2)
    falls = []
    with faults.injected(plan):
        results = run_tasks(_tasks(), backend="pool",
                            on_degrade=lambda f, t, e: falls.append((f, t)))
    assert results == [0, 10, 20]
    assert falls == [("pool", "threads"), ("threads", "serial")]


def test_corrupt_payload_from_pool_worker_degrades():
    # In a pool worker the injection returns a CorruptResult, which
    # explodes on the driver's unpickle — transport corruption, not an
    # application error.  It outlasts the pool's three attempts, so
    # the ladder absorbs it, and threads (attempt 4) have healed.
    plan = FaultPlan(faults={"part:2": faults.CORRUPT_PAYLOAD},
                     faulty_attempts=3)
    falls = []
    with faults.injected(plan):
        results = run_tasks(_pool_tasks(), backend="pool",
                            on_degrade=lambda f, t, e:
                            falls.append(type(e).__name__))
    assert results == [0, 10, 20]
    assert falls == ["CorruptPayload"]


def test_poison_partition_exhausts_the_ladder():
    plan = FaultPlan(poison={"part:0": faults.CRASH})
    with faults.injected(plan):
        with pytest.raises(WorkerCrash):
            run_tasks(_tasks(), backend="threads")


def test_application_errors_are_not_absorbed():
    def boom():
        raise ValueError("application bug, not a substrate fault")

    falls = []
    with pytest.raises(ValueError, match="application bug"):
        run_tasks([lambda: 1, boom], backend="threads",
                  on_degrade=lambda f, t, e: falls.append(f))
    assert falls == []      # the ladder never moved


def test_hung_partition_surfaces_classified_deadline():
    from repro.service.faults import Deadline

    plan = FaultPlan(faults={"part:1": faults.HANG}, hang_seconds=30.0)
    start = time.perf_counter()
    with faults.injected(plan):
        with pytest.raises(DeadlineExceeded):
            run_tasks(_tasks(), backend="threads",
                      deadline=Deadline.after(0.3))
    assert time.perf_counter() - start < 10     # abandoned, not joined


def test_ladder_is_deterministic():
    plan = FaultPlan(faults={"part:1": faults.CRASH})
    runs = []
    for _ in range(2):
        falls = []
        with faults.injected(plan):
            results = run_tasks(_tasks(), backend="threads",
                                on_degrade=lambda f, t, e:
                                falls.append((f, t)))
        runs.append((results, falls))
    assert runs[0] == runs[1]


def test_fault_free_run_never_degrades():
    falls = []
    assert run_tasks(_tasks(), backend="threads",
                     on_degrade=lambda f, t, e: falls.append(f)) \
        == [0, 10, 20]
    assert falls == []


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


def test_degraded_query_identical_to_serial_threads(chaos_db):
    plan = FaultPlan(faults={"part:1": faults.CRASH})
    view = chaos_db.view(ExecutorOptions(parallel=3))
    with faults.injected(plan):
        _assert_identical_to_serial(chaos_db, view, JOIN)
        text = view.explain(JOIN, analyze=True)
    assert "degraded=threads->serial" in text


def test_degraded_aggregation_identical_on_process_backend(chaos_db):
    # Attempts 1-3 exhaust the pool, 4 crashes the threads rung too.
    plan = FaultPlan(faults={"part:0": faults.CRASH}, faulty_attempts=4)
    view = chaos_db.view(ExecutorOptions(parallel=3,
                                         parallel_backend="pool"))
    with faults.injected(plan):
        result = _assert_identical_to_serial(chaos_db, view, GROUPED)
        text = view.explain(GROUPED, analyze=True)
    assert result.stats.degradations >= 2       # fell two rungs
    assert "degraded=pool->threads->serial" in text


def test_corrupt_partition_payload_still_identical(chaos_db):
    # Corrupt on every pool attempt (1-3), so the ladder falls a rung.
    plan = FaultPlan(faults={"part:2": faults.CORRUPT_PAYLOAD},
                     faulty_attempts=3)
    view = chaos_db.view(ExecutorOptions(parallel=3,
                                         parallel_backend="pool"))
    with faults.injected(plan):
        _assert_identical_to_serial(chaos_db, view, GROUPED)


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
