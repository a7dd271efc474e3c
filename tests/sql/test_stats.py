"""The statistics layer: incremental maintenance, ANALYZE, estimator
edge cases (empty tables, constant/all-distinct columns, stale stats,
degradation on unhashable/incomparable values) and the auto-partition
cost rule."""

import pytest

from repro.sql import Database, ExecutorOptions
from repro.sql.plan.optimizer import (
    AUTO_MIN_CORES,
    AUTO_ROWS_PER_PARTITION,
    resolve_auto_partitions,
)
from repro.sql.stats import TableStats


@pytest.fixture
def db():
    db = Database()
    db.create_table("t", ("id", "c", "v"))
    # id all-distinct, c constant, v small-domain.
    db.insert_many("t", ({"id": i, "c": 7, "v": i % 4}
                         for i in range(20)))
    db.create_table("empty", ("id", "v"))
    return db


def test_incremental_maintenance_on_insert(db):
    stats = db.table("t").stats
    assert stats.row_count == 20
    assert stats.ndv("id") == 20          # all distinct
    assert stats.ndv("c") == 1            # constant column
    assert stats.ndv("v") == 4
    assert stats.bounds("id") == (0, 19)
    assert stats.bounds("c") == (7, 7)
    db.insert("t", {"id": 20, "c": 7, "v": 99})
    assert stats.row_count == 21
    assert stats.ndv("id") == 21
    assert stats.bounds("v") == (0, 99)


def test_empty_table_stats_and_planning(db):
    stats = db.table("empty").stats
    assert stats.row_count == 0
    assert stats.ndv("id") == 0
    assert stats.bounds("id") == (None, None)
    # Planning and executing against empty stats must not divide by
    # zero or reorder anything (all costs tie at zero -> FROM order).
    text = db.explain("SELECT * FROM empty e, t WHERE e.id = t.id")
    assert "Restore" not in text
    assert len(db.execute("SELECT * FROM empty e, t "
                          "WHERE e.id = t.id").rows) == 0


def test_rowid_stats_are_synthetic(db):
    stats = db.table("t").stats
    assert stats.ndv("_rowid") == 20
    assert stats.bounds("_rowid") == (0, 19)
    assert db.table("empty").stats.bounds("_rowid") == (None, None)


def test_stale_stats_after_bulk_bypass_and_analyze_refresh(db):
    table = db.table("t")
    # Rows smuggled in behind the insert API leave the stats stale.
    from repro.tor.values import Record

    for i in range(30):
        table.rows.append(Record({"id": 100 + i, "c": 8, "v": 5}))
    assert table.stats.row_count == 20          # stale
    db.analyze("t")
    assert table.stats.row_count == 50
    assert table.stats.ndv("c") == 2
    assert table.stats.bounds("id") == (0, 129)
    # Database.analyze() with no argument refreshes every table.
    table.rows.pop()
    db.analyze()
    assert table.stats.row_count == 49


def test_unhashable_values_degrade_ndv():
    stats = TableStats(("x",))
    stats.observe({"x": [1, 2]})
    stats.observe({"x": [3]})
    assert stats.ndv("x") is None       # unknown, not a wrong guess
    assert stats.row_count == 2


def test_incomparable_values_degrade_bounds():
    stats = TableStats(("x",))
    stats.observe({"x": 1})
    stats.observe({"x": "a"})
    assert stats.bounds("x") == (None, None)
    assert stats.ndv("x") == 2          # NDV still exact


def test_none_values_ignored_by_bounds_regardless_of_order():
    # SQL NULL semantics: None never enters min/max, and the result
    # must not depend on where in the load the None appears.
    for load in ((None, 5, 3), (5, None, 3), (3, 5, None)):
        stats = TableStats(("x",))
        for value in load:
            stats.observe({"x": value})
        assert stats.bounds("x") == (3, 5), load
        assert stats.ndv("x") == 3      # None still counts as a value


def test_estimates_survive_unknown_stats(db):
    # A FROM subquery has no table stats; estimation falls back to
    # defaults instead of failing.
    sql = ("SELECT x.id FROM (SELECT t0.id FROM t t0 WHERE t0.v = 1) x, "
           "t t1 WHERE x.id = t1.id")
    result = db.execute(sql)
    legacy = db.view(ExecutorOptions(planner=False)).execute(sql)
    assert list(result.rows) == list(legacy.rows)


def test_resolve_auto_partitions_rule():
    cores = 8
    assert resolve_auto_partitions(0, cores) == 1
    assert resolve_auto_partitions(AUTO_ROWS_PER_PARTITION - 1,
                                   cores) == 1
    assert resolve_auto_partitions(AUTO_ROWS_PER_PARTITION * 3,
                                   cores) == 3
    # Capped by the usable cores.
    assert resolve_auto_partitions(AUTO_ROWS_PER_PARTITION * 100,
                                   cores) == cores
    assert resolve_auto_partitions(10 ** 9, 1) == 1
    # Below AUTO_MIN_CORES cores every input stays serial.
    assert AUTO_MIN_CORES == 4
    assert resolve_auto_partitions(10 ** 9, 2) == 1
    assert resolve_auto_partitions(10 ** 9, 3) == 1


def test_parallel_auto_is_identity(db):
    auto = db.view(ExecutorOptions(parallel="auto"))
    for sql in ("SELECT t0.id FROM t t0 WHERE t0.v = 2",
                "SELECT COUNT(*), SUM(t0.id) FROM t t0",
                "SELECT t0.v, COUNT(*) AS n FROM t t0 GROUP BY t0.v"):
        assert list(auto.execute(sql).rows) == \
            list(db.execute(sql).rows), sql


def _big_db():
    db = Database()
    db.create_table("big", ("id", "g"))
    db.insert_many("big", ({"id": i, "g": i % 5}
                           for i in range(AUTO_ROWS_PER_PARTITION * 4)))
    return db


def test_parallel_auto_fans_out_large_scans(monkeypatch):
    import repro.sql.plan.optimizer as O

    db = _big_db()
    monkeypatch.setattr(O, "usable_cores", lambda: 4)
    auto = db.view(ExecutorOptions(parallel="auto"))
    sql = "SELECT COUNT(*) AS n FROM big t0"
    assert "partitions=4" in auto.explain(sql)
    assert auto.execute(sql).scalar() == db.execute(sql).scalar()


def test_parallel_auto_stays_serial_on_two_cores(monkeypatch):
    import repro.sql.plan.optimizer as O

    db = _big_db()
    monkeypatch.setattr(O, "usable_cores", lambda: 2)
    auto = db.view(ExecutorOptions(parallel="auto"))
    sql = "SELECT COUNT(*) AS n FROM big t0"
    plan = auto.explain(sql)
    assert "partitions=" not in plan
    assert plan == db.explain(sql)
    assert auto.execute(sql).scalar() == db.execute(sql).scalar()


def test_parallel_auto_requires_planner():
    with pytest.raises(ValueError):
        Database(ExecutorOptions(planner=False, parallel="auto"))
    with pytest.raises(ValueError):
        Database(ExecutorOptions(parallel="nope"))
