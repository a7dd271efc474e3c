"""Parallel execution is invisible: statements run by several threads at
once through one :class:`Database` get the rows, columns and stats of a
serial run.

A run checks its statement's cached plan out and puts it back only
after a clean run, so two runs of one statement never share operator
state: the second plans a copy of its own.  Every run keeps the rows it
reads, a join's build side included, in its own locals, and no plan
reads a parameter value.  Threads switch every 10 microseconds here, so
a run that read another run's state would show up as wrong rows.

* the planner-equivalence query battery, each statement run by four
  threads at once and checked against the serial planner and the seed
  pipeline;
* every corpus-inferred SQL statement, the same way;
* targeted shapes: ORDER BY ... LIMIT with a different binding per
  thread, empty tables, and AVG, whose exact ``(total, count)`` state
  gives one float-bitwise mean in every row order, engine and thread.
"""

import random
import re
import struct
import sys
import threading
import time
from fractions import Fraction

import pytest

from repro.corpus.schema import create_wilos_database, populate_wilos
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

from test_planner_equivalence import BATTERY

THREADS = 4
ROUNDS = 3


def _stats_tuple(stats):
    return (stats.rows_scanned, stats.index_probes, stats.hash_joins,
            stats.nested_loop_joins, stats.index_scans, stats.full_scans)


def _run_in_parallel(db, runs):
    """Run each ``(sql, params)`` of ``runs`` on a thread of its own,
    all at once, ``ROUNDS`` times each; returns each thread's results.
    Daemon threads and a join bound make a hang fail the test instead
    of blocking the suite."""
    start = threading.Barrier(len(runs))
    results = [[] for _ in runs]
    failures = []

    def worker(n):
        sql, params = runs[n]
        try:
            start.wait(timeout=30)
            for _ in range(ROUNDS):
                results[n].append(db.execute(sql, params))
        except Exception as exc:     # noqa: BLE001 - reported below
            failures.append((n, exc))

    threads = [threading.Thread(target=worker, args=(n,), daemon=True)
               for n in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "hung"
    assert failures == []
    return results


def _assert_parallel_identical(db, sql, params=None):
    references = [
        ("serial planner", db.execute(sql, params)),
        ("seed pipeline",
         db.view(ExecutorOptions(planner=False)).execute(sql, params))]
    for results in _run_in_parallel(db, [(sql, params)] * THREADS):
        assert len(results) == ROUNDS
        for result in results:
            for label, reference in references:
                assert list(result.rows) == list(reference.rows), \
                    (sql, label)
                assert result.columns == reference.columns, (sql, label)
                assert _stats_tuple(result.stats) == \
                    _stats_tuple(reference.stats), (sql, label)


@pytest.fixture(scope="module")
def wilos_db():
    db = create_wilos_database()
    populate_wilos(db, n_users=50, n_roles=8, unfinished_fraction=0.3)
    db.insert_many("process", (
        {"id": i, "process_name": "proc%d" % i, "manager_id": i % 4}
        for i in range(6)))
    db.insert_many("role_descriptor", (
        {"id": i, "role_id": i % 8, "process_id": i % 6,
         "descriptor_name": "rd%d" % i} for i in range(25)))
    return db


@pytest.mark.parametrize("case", range(len(BATTERY)))
def test_battery_parallel_equivalence(case, wilos_db):
    sql, params = BATTERY[case]
    _assert_parallel_identical(wilos_db, sql, params)


def test_full_corpus_sql_parallel(corpus_sql, app_dbs):
    assert len(corpus_sql) >= 40
    for fragment_id, app, sql in corpus_sql:
        params = {name: 1 for name in set(re.findall(r":(\w+)", sql))}
        _assert_parallel_identical(app_dbs[app], sql, params)


# -- targeted shapes -----------------------------------------------------------


@pytest.fixture(scope="module")
def small_db():
    db = Database()
    db.create_table("r", ("id", "a"))
    db.create_table("s", ("id", "b"))
    db.create_index("s", "b")
    db.insert_many("r", ({"id": i, "a": i % 5} for i in range(23)))
    db.insert_many("s", ({"id": i, "b": i % 5} for i in range(11)))
    db.create_table("empty", ("id", "v"))
    return db


def test_parallel_order_by_top_k(small_db):
    """One top-k statement, a different ``:a`` on each thread: the plan
    one thread puts back serves the next with another binding, and
    each still gets its own rows in serial tie order."""
    sql = ("SELECT t0.id, t1.id FROM r t0, s t1 WHERE t0.a = t1.b "
           "AND t0.a <= :a ORDER BY t0.a DESC, t1.id LIMIT 4")
    runs = [(sql, {"a": n}) for n in range(THREADS)]
    expected = [list(small_db.execute(sql, params).rows)
                for _, params in runs]
    assert len(set(map(repr, expected))) == THREADS
    for n, results in enumerate(_run_in_parallel(small_db, runs)):
        assert [list(result.rows) for result in results] == \
            [expected[n]] * ROUNDS


def test_empty_table(small_db):
    _assert_parallel_identical(small_db, "SELECT * FROM empty")
    _assert_parallel_identical(
        small_db, "SELECT COUNT(*), SUM(t0.v) FROM empty t0")


AVG_GROUPED = ("SELECT t0.a, AVG(t0.v) AS m, COUNT(*) AS n FROM r t0 "
               "GROUP BY t0.a ORDER BY t0.a")
AVG_WHOLE = "SELECT AVG(t0.v) AS m FROM r t0 WHERE t0.id > 2"


def _bits(rows):
    """Rows as tuples, each float as its IEEE 754 bytes."""
    return [tuple(struct.pack("<d", value) if isinstance(value, float)
                  else value for value in row) for row in rows]


def _result_bits(result):
    return _bits(tuple(row.values()) for row in result.rows)


def test_avg_combines_bitwise_identical():
    """AVG combines its values into an exact total and rounds once, so
    the mean is float-*bitwise* identical whatever order the rows
    arrive in, in the seed pipeline, at every batch size and on
    threads running at once -- not merely approximately equal.  The
    values mix magnitudes, so a plain float sum would depend on the
    order."""
    values = [1e16, 1.0, -1e16, 0.1, 3.0, 0.7, -2.5e-3, 1e-8, 7.25, 0.3]
    rows = [{"id": i, "a": i % 2, "v": v} for i, v in enumerate(values)]
    orders = [rows, rows[::-1]] + [
        random.Random(seed).sample(rows, len(rows)) for seed in (1, 2)]
    plain = {sum(row["v"] for row in order) for order in orders}
    assert len(plain) > 1, "a plain float sum should depend on the order"

    def exact(selected):
        total = sum(Fraction(row["v"]) for row in selected)
        return float(total / len(selected))

    expected = {
        AVG_GROUPED: _bits(
            (a, exact([r for r in rows if r["a"] == a]),
             sum(1 for r in rows if r["a"] == a)) for a in (0, 1)),
        AVG_WHOLE: _bits([(exact([r for r in rows if r["id"] > 2]),)]),
    }
    for order in orders:
        db = Database()
        db.create_table("r", ("id", "a", "v"))
        db.insert_many("r", order)
        engines = [db, db.view(ExecutorOptions(planner=False))] + [
            db.view(ExecutorOptions(batch_size=n)) for n in (1, 3)]
        for sql, want in expected.items():
            for engine in engines:
                assert _result_bits(engine.execute(sql)) == want, sql
            for results in _run_in_parallel(db, [(sql, None)] * THREADS):
                assert [_result_bits(result) for result in results] == \
                    [want] * ROUNDS, sql
