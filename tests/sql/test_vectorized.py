"""Batch execution is invisible: every planned query runs on column
batches, one per operator, and its rows, columns and engine statistics
are identical to the seed single-pass pipeline's
(``ExecutorOptions(planner=False)``, GROUP BY / HAVING included).

Layers:

* the planner-equivalence query battery;
* a table of 1,030 rows, past the 1,024 a batch held while operators
  streamed chunks, plus empty-table and single-row fast paths;
* shapes without a column form (IN subqueries, mixed with column
  predicates): per-row closures inside the batch, evaluated on the
  same rows as the seed pipeline;
* observability surfaces: trace span operator sets, profile
  attachment;
* the inert ``vectorized`` flag;
* every corpus-inferred SQL statement.
"""

import re

import pytest

from repro.corpus.schema import create_wilos_database, populate_wilos
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

from test_planner_equivalence import BATTERY


def _stats_tuple(stats):
    return (stats.rows_scanned, stats.index_probes, stats.hash_joins,
            stats.nested_loop_joins, stats.index_scans, stats.full_scans)


def _assert_vectorized_identical(db, sql, params=None):
    result = db.execute(sql, params)
    reference = db.view(ExecutorOptions(planner=False)).execute(sql, params)
    assert list(result.rows) == list(reference.rows), sql
    assert result.columns == reference.columns, sql
    assert _stats_tuple(result.stats) == _stats_tuple(reference.stats), sql


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
def test_battery_vectorized_equivalence(case, wilos_db):
    sql, params = BATTERY[case]
    _assert_vectorized_identical(wilos_db, sql, params)


# -- table sizes ---------------------------------------------------------------


@pytest.fixture(scope="module")
def boundary_db():
    """1030 rows, one table with none and one with a single row."""
    db = Database()
    db.create_table("t", ("id", "k", "v"))
    db.insert_many("t", ({"id": i, "k": i % 9, "v": i % 31}
                         for i in range(1030)))
    db.create_table("empty", ("id", "v"))
    db.create_table("one", ("id", "v"))
    db.insert("one", {"id": 0, "v": 42})
    return db


BOUNDARY_QUERIES = (
    "SELECT t0.id FROM t t0 WHERE t0.v > 15",
    "SELECT t0.k, COUNT(*) AS n, SUM(t0.v) AS tot FROM t t0 "
    "GROUP BY t0.k ORDER BY n DESC, t0.k",
    "SELECT t0.id, t0.v FROM t t0 WHERE t0.k = 3 "
    "ORDER BY t0.v DESC, t0.id LIMIT 10",
    "SELECT COUNT(*) AS n, MIN(t0.v) AS lo, AVG(t0.v) AS m FROM t t0 "
    "WHERE t0.k > 1",
)


@pytest.mark.parametrize("sql", BOUNDARY_QUERIES)
def test_batch_boundary_sizes(boundary_db, sql):
    _assert_vectorized_identical(boundary_db, sql)


def test_empty_table_fast_path(boundary_db):
    _assert_vectorized_identical(boundary_db, "SELECT * FROM empty")
    _assert_vectorized_identical(
        boundary_db, "SELECT COUNT(*), SUM(t0.v) FROM empty t0")
    text = boundary_db.explain("SELECT * FROM empty", analyze=True)
    assert "FullScan(empty AS empty)  [rows=0," in text


def test_single_batch_fast_path(boundary_db):
    _assert_vectorized_identical(boundary_db,
                                 "SELECT t0.v FROM one t0 WHERE t0.v > 1")
    text = boundary_db.explain("SELECT t0.v FROM one t0", analyze=True)
    assert "FullScan(one AS t0)  [rows=1," in text


@pytest.mark.parametrize("size", [2, 1024])
def test_columns_of_records_written_behind_the_api(size):
    """A batch reads a column at its position in the records' one field
    tuple only when every record of the batch has an equal tuple.  A
    record written behind the table API in another field order reads by
    name, and one that lacks the column raises the seed pipeline's
    error.  The table API first writes ``size`` records: the odd ones
    sit beside one record, and among 1,024."""
    from repro.sql.errors import SQLExecutionError
    from repro.tor.values import Record

    db = Database()
    db.create_table("t", ("id", "k", "v"))
    db.insert_many("t", [{"id": i, "k": i % 3, "v": i * 10}
                         for i in range(size)])
    stored = db.table("t").rows
    stored[1] = Record({"v": 10, "id": 1, "k": 1})
    stored.append(Record({"k": 0, "v": size * 10, "id": size}))
    for sql in ("SELECT t0.id, t0.v FROM t t0 WHERE t0.k = 0",
                "SELECT t0.id FROM t t0 WHERE t0.v >= 10 AND 1 = t0.k",
                "SELECT t0.id FROM t t0 WHERE t0.k < t0.id ORDER BY t0.v"):
        _assert_vectorized_identical(db, sql)
    stored.append(Record({"id": size + 1, "v": (size + 1) * 10}))
    for options in (ExecutorOptions(), ExecutorOptions(planner=False)):
        with pytest.raises(SQLExecutionError,
                           match="no column 'k' in source 't0'"):
            db.view(options).execute(
                "SELECT t0.id FROM t t0 WHERE t0.k = 1")


# -- shapes without a column form ----------------------------------------------


@pytest.fixture(scope="module")
def fallback_db():
    db = Database()
    db.create_table("r", ("id", "a"))
    db.create_table("s", ("id", "b"))
    db.insert_many("r", ({"id": i, "a": i % 5} for i in range(23)))
    db.insert_many("s", ({"id": i, "b": i % 5} for i in range(11)))
    return db


def test_in_subquery_runs_on_batches(fallback_db):
    """An IN subquery filters inside the scan's batches, through a
    per-row closure: the subquery runs once per candidate row, as in
    the seed pipeline (the statistics count every run)."""
    sql = ("SELECT t0.id FROM r t0 WHERE t0.a IN "
           "(SELECT t1.b FROM s t1 WHERE t1.id = 1)")
    plan = fallback_db.explain(sql, analyze=True)
    assert plan.splitlines()[-1].startswith(
        " └─ FullScan(r AS t0) filter=1  [rows=5,")
    result = fallback_db.execute(sql)
    assert result.stats.rows_scanned == 23 + 23 * 11
    _assert_vectorized_identical(fallback_db, sql)


def test_aggregate_comparison_expression_vectorizes(fallback_db):
    _assert_vectorized_identical(
        fallback_db,
        "SELECT COUNT(*) > 10 AS big, SUM(t0.id) AS tot FROM r t0 "
        "WHERE t0.a > 1")


def test_mixed_predicates_run_on_batches(fallback_db):
    """A column predicate and an IN subquery in one scan filter: the
    subquery's per-row closure sees only the rows the column predicate
    admits (a masked sub-batch), so it runs exactly as often as in the
    seed pipeline."""
    sql = ("SELECT COUNT(*) AS n FROM r t0 WHERE t0.a > 1 AND t0.id IN "
           "(SELECT t1.id FROM s t1)")
    result = fallback_db.execute(sql)
    admitted = sum(1 for i in range(23) if i % 5 > 1)
    assert result.stats.rows_scanned == 23 + admitted * 11
    _assert_vectorized_identical(fallback_db, sql)


# -- observability surfaces ----------------------------------------------------


def test_trace_operator_set_matches_serial(boundary_db):
    sql = "SELECT t0.k, COUNT(*) AS n FROM t t0 GROUP BY t0.k"
    serial = boundary_db.execute(sql, trace=True)
    vec = boundary_db.view(ExecutorOptions()).execute(sql, trace=True)

    def ops(root):
        return {node.tags["op"] for _, node in root.walk()
                if "op" in node.tags}

    assert ops(vec.trace) == ops(serial.trace)
    # Operator spans carry per-operator cardinalities.
    assert any(node.name == "FullScan" and node.tags.get("rows") == 1030
               for _, node in vec.trace.walk())


def test_profile_attaches_under_vectorized(boundary_db):
    result = boundary_db.execute(
        "SELECT t0.k, COUNT(*) AS n FROM t t0 GROUP BY t0.k",
        profile=True)
    assert result.profile is not None


# -- the inert flag ------------------------------------------------------------


def test_vectorized_flag_is_inert(wilos_db):
    """``ExecutorOptions.vectorized`` selects nothing: over the whole
    battery it leaves EXPLAIN ANALYZE, rows, columns and statistics
    exactly as the default options do."""
    plain = wilos_db.view(ExecutorOptions())
    flagged = wilos_db.view(ExecutorOptions(vectorized=True))
    for sql, params in BATTERY:
        assert flagged.explain(sql, params, analyze=True) == \
            plain.explain(sql, params, analyze=True), sql
        got, want = (flagged.execute(sql, params),
                     plain.execute(sql, params))
        assert list(got.rows) == list(want.rows), sql
        assert got.columns == want.columns, sql
        assert got.stats == want.stats, sql


# -- full-corpus equivalence ---------------------------------------------------


def test_full_corpus_sql_vectorized(corpus_sql, app_dbs):
    assert len(corpus_sql) >= 40
    for fragment_id, app, sql in corpus_sql:
        db = app_dbs[app]
        params = {name: 1
                  for name in set(re.findall(r":(\w+)", sql))}
        _assert_vectorized_identical(db, sql, params)
