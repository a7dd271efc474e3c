"""Chaos suite for the persistent worker pool.

The pool handles substrate faults *inside* its own rung before the
degradation ladder ever moves: a crashed worker is respawned and the
job retried under the pool's :class:`~repro.service.faults.RetryPolicy`
(corrupt payloads retry on the same, still-healthy worker).  Only when
the retry budget exhausts does the fault escape and the ladder fall
``pool → serial``.  Either way the answer is
pinned row/column/stats-identical to serial execution, and the
respawn/retry/dispatch counters expose exactly how many attempts the
recovery took.

Fault plans are applied *worker-side* (shipped inside each run frame):
a long-lived worker forked before ``faults.injected`` ran would never
see a driver-side plan, so the pool routes the plan through the wire
protocol instead.
"""

import time

import pytest

from repro.service import faults
from repro.service import pool as pool_mod
from repro.service.faults import (
    DeadlineExceeded,
    FaultPlan,
    TransientFault,
    WorkerCrash,
)
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions


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


def _pool_view(db, **overrides):
    return db.view(ExecutorOptions(parallel=2, **overrides))


def _metric_deltas(action):
    """Run ``action`` and return the pool counter deltas it caused."""
    before = (pool_mod._DISPATCHES.total(), pool_mod._RESPAWNS.total(),
              pool_mod._RETRIES.total())
    result = action()
    after = (pool_mod._DISPATCHES.total(), pool_mod._RESPAWNS.total(),
             pool_mod._RETRIES.total())
    deltas = {"dispatches": after[0] - before[0],
              "respawns": after[1] - before[1],
              "retries": after[2] - before[2]}
    return result, deltas


def _assert_identical_to_serial(db, view, sql, degradations=0):
    serial = db.execute(sql)
    result = view.execute(sql)
    assert list(result.rows) == list(serial.rows)
    assert result.columns == serial.columns
    assert _stats_tuple(result.stats) == _stats_tuple(serial.stats)
    assert result.stats.degradations == degradations
    return result


def test_killed_worker_respawns_and_retries_exact_counts(chaos_db):
    """A worker killed mid-query (injected CRASH → ``os._exit`` inside
    the worker) is respawned and the lost job retried — converging to
    the fault-free answer with *exactly* one respawn, one retry, and
    three dispatches (two partitions + the retried one), and without
    the ladder moving at all."""
    plan = FaultPlan(faults={"part:1": faults.CRASH})
    view = _pool_view(chaos_db)

    def run():
        with faults.injected(plan):
            return _assert_identical_to_serial(chaos_db, view, JOIN)

    _, deltas = _metric_deltas(run)
    assert deltas == {"dispatches": 3, "respawns": 1, "retries": 1}


def test_two_attempt_crash_heals_within_retry_budget(chaos_db):
    """A fault lasting two attempts still converges inside the pool
    rung: two respawns, two retries, and the third attempt answers."""
    plan = FaultPlan(faults={"part:0": faults.CRASH}, faulty_attempts=2)
    view = _pool_view(chaos_db)

    def run():
        with faults.injected(plan):
            return _assert_identical_to_serial(chaos_db, view, GROUPED)

    _, deltas = _metric_deltas(run)
    assert deltas == {"dispatches": 4, "respawns": 2, "retries": 2}


def test_corrupt_payload_retries_on_the_same_worker(chaos_db):
    """A reply that will not unpickle is transport corruption, not a
    dead worker: the pool retries without respawning anything."""
    plan = FaultPlan(faults={"part:1": faults.CORRUPT_PAYLOAD})
    view = _pool_view(chaos_db)

    def run():
        with faults.injected(plan):
            return _assert_identical_to_serial(chaos_db, view, JOIN)

    _, deltas = _metric_deltas(run)
    assert deltas == {"dispatches": 3, "respawns": 0, "retries": 1}


def test_exhausted_retry_budget_degrades_and_converges(chaos_db):
    """When every pool attempt crashes (attempts 1-3 cover the whole
    default retry budget), the fault escapes the rung and the ladder
    takes over.  Attempts count on across rungs, so the serial rung
    runs attempt 4, where the plan has healed: three respawns, two
    retries, four dispatches (two partitions + two retries)."""
    plan = FaultPlan(faults={"part:1": faults.CRASH}, faulty_attempts=3)
    view = _pool_view(chaos_db)

    def run():
        with faults.injected(plan):
            return _assert_identical_to_serial(chaos_db, view, JOIN,
                                               degradations=1)

    _, deltas = _metric_deltas(run)
    assert deltas == {"dispatches": 4, "respawns": 3, "retries": 2}
    with faults.injected(plan):
        text = view.explain(JOIN, analyze=True)
    assert "degraded=pool->serial" in text


def test_poison_partition_exhausts_the_whole_ladder(chaos_db):
    """A poison fault never heals: the ladder falls all the way and the
    classified crash finally propagates from the serial rung."""
    plan = FaultPlan(poison={"part:0": faults.CRASH})
    view = _pool_view(chaos_db)
    with faults.injected(plan):
        with pytest.raises(WorkerCrash):
            view.execute(JOIN)


def test_application_transient_fault_is_not_absorbed(chaos_db):
    """TransientFault raised inside a worker is an application-level
    error carried home over the ``exc`` reply — the pool re-raises it
    instead of respawning anything."""
    plan = FaultPlan(faults={"part:0": faults.TRANSIENT})
    view = _pool_view(chaos_db)
    with faults.injected(plan):
        with pytest.raises(TransientFault):
            view.execute(JOIN)


def test_hung_worker_hits_deadline_and_pool_recovers(chaos_db):
    """A hung partition trips the query deadline fast; the stuck
    workers are scrapped, and the *next* query finds a healthy pool."""
    plan = FaultPlan(faults={"part:1": faults.HANG}, hang_seconds=30.0)
    view = _pool_view(chaos_db, deadline_seconds=0.3)
    start = time.perf_counter()
    with faults.injected(plan):
        with pytest.raises(DeadlineExceeded):
            view.execute(JOIN)
    assert time.perf_counter() - start < 10     # abandoned, not joined
    # Recovery: the same pool answers the follow-up query correctly.
    _assert_identical_to_serial(chaos_db, _pool_view(chaos_db), JOIN)


def test_chaotic_pool_query_is_deterministic(chaos_db):
    plan = FaultPlan(faults={"part:0": faults.CRASH})
    view = _pool_view(chaos_db)
    snapshots = []
    for _ in range(2):
        with faults.injected(plan):
            result = view.execute(GROUPED)
        snapshots.append((list(result.rows), result.columns,
                          _stats_tuple(result.stats),
                          result.stats.degradations))
    assert snapshots[0] == snapshots[1]


def test_from_subquery_does_not_fan_out_on_its_own():
    """A FROM subquery inside a K=2 plan runs serially: only the outer
    plan's two partitions reach the pool."""
    db = Database()
    db.create_table("t", ("id", "g"))
    db.insert_many("t", ({"id": i, "g": i % 3} for i in range(5000)))
    view = db.view(ExecutorOptions(parallel=2))
    sql = "SELECT x.id FROM (SELECT t.id, t.g FROM t WHERE t.g = 1) x"
    result, deltas = _metric_deltas(
        lambda: _assert_identical_to_serial(db, view, sql))
    assert deltas == {"dispatches": 2, "respawns": 0, "retries": 0}
    assert len(result.rows) == 1667


def test_default_parallel_query_dispatches_to_the_pool(chaos_db):
    """Default options with ``parallel=2`` run both partitions in pool
    workers: the pool's dispatch counter moves by exactly two."""
    view = chaos_db.view(ExecutorOptions(parallel=2))
    _, deltas = _metric_deltas(
        lambda: _assert_identical_to_serial(chaos_db, view, JOIN))
    assert deltas == {"dispatches": 2, "respawns": 0, "retries": 0}
    assert "degraded=" not in view.explain(JOIN, analyze=True)
