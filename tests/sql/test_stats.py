"""The statistics layer: incremental maintenance, ANALYZE and estimator
edge cases (empty tables, constant/all-distinct columns, stale stats,
degradation on unhashable/incomparable values)."""

import pytest

from repro.sql import Database, ExecutorOptions
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
