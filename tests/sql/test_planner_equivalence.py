"""Planner-vs-legacy outcome equivalence.

Three layers:

* a hand-written query battery over the application schemas, covering
  every operator combination the grammar admits (joins, index probes,
  IN subqueries, FROM subqueries, top-k, DISTINCT, aggregates, GROUP BY
  with HAVING, grouped ORDER BY / LIMIT);
* bare column names under both planner modes: hash joins whose build
  column is written bare or first, and inputs emptied by an index
  probe, a filter or a join;
* the full Fig. 13 + advanced corpus: every fragment QBS translates is
  executed against its populated application database under
  ``ExecutorOptions(planner=True)`` and ``planner=False``, asserting
  identical rows, columns and engine statistics, grouped fragments
  included.
"""

import re

import pytest

from repro.corpus.schema import create_wilos_database, populate_wilos
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions


def _assert_identical(db, sql, params=None):
    planned = db.execute(sql, params)
    legacy = db.view(ExecutorOptions(planner=False)).execute(sql, params)
    assert list(planned.rows) == list(legacy.rows), sql
    assert planned.columns == legacy.columns, sql
    for field in ("rows_scanned", "index_probes", "hash_joins",
                  "nested_loop_joins", "index_scans", "full_scans"):
        assert getattr(planned.stats, field) == \
            getattr(legacy.stats, field), (sql, field)


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


BATTERY = [
    ("SELECT * FROM participant", None),
    ("SELECT p.login FROM participant p WHERE p.id = 7", None),
    ("SELECT p.login FROM participant p WHERE p.id = :pid", {"pid": 3}),
    ("SELECT p.login FROM participant p WHERE p.is_manager = 1 "
     "AND p.role_id > 2", None),
    ("SELECT p.login, r.role_name FROM participant p, role r "
     "WHERE p.role_id = r.role_id", None),
    ("SELECT p.login, d.descriptor_name "
     "FROM participant p, role r, role_descriptor d "
     "WHERE p.role_id = r.role_id AND d.role_id = r.role_id", None),
    ("SELECT COUNT(*) FROM participant p, role r "
     "WHERE p.role_id = r.role_id AND p.is_manager = 1", None),
    ("SELECT p.login FROM participant p ORDER BY p.login DESC LIMIT 5",
     None),
    ("SELECT DISTINCT p.role_id FROM participant p ORDER BY p.role_id",
     None),
    ("SELECT x.login FROM (SELECT p.login, p.role_id FROM participant p "
     "WHERE p.role_id = 2) x", None),
    ("SELECT p.login FROM participant p WHERE p.role_id IN "
     "(SELECT r.role_id FROM role r WHERE r.role_name = 'role1')", None),
    ("SELECT COUNT(*) > 0 FROM participant p WHERE p.login = 'user3'",
     None),
    ("SELECT SUM(p.id), MAX(p.role_id), MIN(p.id), AVG(p.id) "
     "FROM participant p WHERE p.is_manager = 0", None),
    ("SELECT p.login FROM participant p, process pr", None),
    ("SELECT p.login FROM participant p ORDER BY p.role_id, "
     "p._rowid DESC LIMIT 7", None),
    # Whole-input aggregates ignore ORDER BY / LIMIT / DISTINCT in the
    # seed pipeline; the planned path must match that exactly.
    ("SELECT COUNT(*) FROM participant p ORDER BY p.login", None),
    ("SELECT COUNT(*) FROM participant p LIMIT 0", None),
    ("SELECT DISTINCT COUNT(*) FROM participant p LIMIT 0", None),
    # Grouped queries: the seed pipeline groups independently.
    ("SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id", None),
    ("SELECT p.role_id, COUNT(*) AS n, MAX(p.id) AS hi "
     "FROM participant p, role r WHERE p.role_id = r.role_id "
     "GROUP BY p.role_id HAVING COUNT(*) > 3 ORDER BY n DESC", None),
    ("SELECT r.role_name, AVG(p.id) AS m FROM participant p, role r "
     "WHERE p.role_id = r.role_id GROUP BY r.role_name "
     "HAVING COUNT(*) > 1 AND MIN(p.id) < 10 ORDER BY m LIMIT 3", None),
    ("SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id HAVING p.role_id > 2 AND COUNT(*) > 1", None),
]


@pytest.mark.parametrize("case", range(len(BATTERY)))
def test_battery_equivalence(case, wilos_db):
    sql, params = BATTERY[case]
    _assert_identical(wilos_db, sql, params)


def test_nan_sort_key_under_limit_matches_the_seed_pipeline():
    """NaN compares false both ways, so the order of a NaN key is
    whatever the sort makes of it; both modes keep the first LIMIT rows
    of one stable sort, so they agree, and LIMIT returns a prefix of
    the unlimited order."""
    db = Database()
    db.create_table("t", ("id", "k"))
    db.insert_many("t", [{"id": i, "k": k} for i, k in
                         enumerate([2.0, float("nan"), 1.0, 0.5])])
    ordered = "SELECT t0.id FROM t AS t0 ORDER BY t0.k"
    for sql in (ordered, ordered + " LIMIT 2"):
        _assert_identical(db, sql)
    full = db.execute(ordered).rows
    assert list(db.execute(ordered + " LIMIT 2").rows) == list(full[:2])


def test_shared_nan_in_a_two_key_sort_matches_the_seed_pipeline():
    """One NaN object in two rows: wrapped, the seed pipeline's keys
    call it unequal to itself, so the second key never breaks the tie;
    a raw tuple's identity shortcut would call the two equal and sort
    them by the second key."""
    nan = float("nan")
    db = Database()
    db.create_table("t", ("id", "k", "j"))
    db.insert_many("t", [{"id": 0, "k": nan, "j": 2},
                         {"id": 1, "k": nan, "j": 0},
                         {"id": 2, "k": 1.0, "j": 1}])
    _assert_identical(db, "SELECT t0.id FROM t AS t0 ORDER BY t0.k, t0.j")


def test_shared_nan_join_key_matches_no_row():
    """NaN is unequal to itself under the engine's ``=``, even as one
    object stored in both tables: the hash join, planned or in the seed
    pipeline, rejects the pair as the nested loop does."""
    nan = float("nan")
    db = Database()
    for table, ids in (("a", (1, 2)), ("b", (10, 20))):
        db.create_table(table, ("id", "k"))
        db.insert_many(table, [{"id": ids[0], "k": nan},
                               {"id": ids[1], "k": 1.0}])
    sql = "SELECT a.id, b.id FROM a AS a, b AS b WHERE a.k = b.k"
    _assert_identical(db, sql)
    for options in (ExecutorOptions(), ExecutorOptions(planner=False),
                    ExecutorOptions(hash_joins=False)):
        result = db.view(options).execute(sql)
        assert [tuple(row.values()) for row in result.rows] == [(2, 20)]
    assert db.execute("SELECT a.id FROM a AS a WHERE a.k = a.k").rows \
        == db.execute("SELECT a.id FROM a AS a WHERE a.id = 2").rows


def test_avg_is_the_exactly_rounded_mean():
    """AVG totals finite floats exactly and rounds once: 1e16 + 1.0
    rounds back to 1e16 in float arithmetic, so a running float sum
    would give 0.25 here instead of 0.5."""
    db = Database()
    db.create_table("t", ("id", "v"))
    db.insert_many("t", [{"id": i, "v": v} for i, v in
                         enumerate([1e16, 1.0, -1e16, 1.0])])
    sql = "SELECT AVG(t0.v) AS m FROM t AS t0"
    _assert_identical(db, sql)
    assert db.execute(sql).scalar() == 0.5


@pytest.mark.parametrize("indexed", [False, True],
                         ids=["full-scan", "index-probe"])
def test_shared_nan_probe_key_matches_no_row(indexed):
    """One NaN object stored in ``b.k`` and passed as ``:key``: the
    engine's ``=`` finds it unequal to itself, so neither a full scan
    nor an index probe returns its row, on the planner and the seed
    pipeline alike.  A dict lookup would match the identical object."""
    nan = float("nan")
    db = Database()
    db.create_table("b", ("id", "k"))
    db.insert_many("b", [{"id": 0, "k": nan}, {"id": 1, "k": 1.0}])
    if indexed:
        db.create_index("b", "k")
    sql = "SELECT b.id FROM b AS b WHERE b.k = :key"
    _assert_identical(db, sql, {"key": nan})
    assert db.execute(sql, {"key": nan}).rows == []
    assert [row["id"] for row in db.execute(sql, {"key": 1.0}).rows] == [1]
    scan = "IndexScan" if indexed else "FullScan"
    assert scan in db.explain(sql, {"key": nan})


# -- bare column names ---------------------------------------------------------

#: the planner's two modes, cost-based and greedy, each pinned to the
#: seed pipeline below.
PLANNER_MODES = (ExecutorOptions(), ExecutorOptions(cost_based=False))


@pytest.fixture(scope="module")
def bare_db():
    """``t(id, v, name)`` with ``t.id`` indexed, and ``u(tid, w)``: every
    column name belongs to one table, so each may be written bare."""
    db = Database()
    db.create_table("t", ("id", "v", "name"))
    db.create_table("u", ("tid", "w"))
    db.insert_many("t", [{"id": i, "v": 10 * i, "name": "n%d" % i}
                         for i in range(3)])
    db.insert_many("u", [{"tid": i, "w": 100 + i} for i in (2, 0, 1)])
    db.create_index("t", "id")
    return db


@pytest.mark.parametrize("predicate", [
    "tid = id", "tid = t.id", "id = tid", "u.tid = id"])
def test_hash_join_finds_a_bare_build_column(bare_db, predicate):
    """Every mode decides a hash join's build side from the owners that
    classification resolves for each side of the predicate, so a build
    column written bare, or first, is read from the build side."""
    sql = "SELECT t.id, w FROM t, u WHERE " + predicate
    for options in PLANNER_MODES:
        _assert_identical(bare_db.view(options), sql)
    for options in (ExecutorOptions(planner=False),) + PLANNER_MODES:
        result = bare_db.view(options).execute(sql)
        assert [tuple(row.values()) for row in result.rows] == \
            [(0, 100), (1, 101), (2, 102)], (sql, options)
        assert result.stats.hash_joins == 1


@pytest.mark.parametrize("sql,operator", [
    ("SELECT name FROM t WHERE id = 99", "IndexScan"),
    ("SELECT name FROM t AS x WHERE x.v > 99", "filter=1"),
    ("SELECT SUM(v), MAX(name) FROM t WHERE v > 99", "Aggregate"),
    ("SELECT v, COUNT(*) FROM t WHERE v > 99 GROUP BY v", "GroupBy"),
    ("SELECT id FROM t WHERE v > 99 ORDER BY name", "Sort"),
    ("SELECT id FROM t WHERE v > 99 ORDER BY nosuch", "Sort"),
    ("SELECT t.id, w FROM t, u WHERE t.v > 99 AND id = tid", "HashJoin"),
], ids=["index-probe", "aliased-filter", "aggregate", "group-by",
        "order-by", "order-by-unknown-column", "hash-join"])
def test_no_closure_runs_on_an_empty_input(bare_db, sql, operator):
    """An input emptied by an index probe, a pushed filter or a join
    evaluates no expression and reads no sort key, as in the seed
    pipeline: a bare name resolves against the rows it is given, and
    over no rows it would raise ``cannot resolve column``.  The join's
    left side is empty, so its bare probe column ``id`` is never
    read."""
    for options in PLANNER_MODES:
        view = bare_db.view(options)
        assert operator in view.explain(sql)
        _assert_identical(view, sql)


# -- full-corpus equivalence ---------------------------------------------------
# (corpus_sql / app_dbs are the session fixtures from conftest.py.)


def test_full_corpus_sql_equivalence(corpus_sql, app_dbs):
    assert len(corpus_sql) >= 40  # 33 Fig. 13 + 7 advanced
    for fragment_id, app, sql in corpus_sql:
        db = app_dbs[app]
        params = {name: 1 for name in
                  set(re.findall(r":(\w+)", sql))}
        _assert_identical(db, sql, params)
    assert any("GROUP BY" in sql for _, _, sql in corpus_sql)
