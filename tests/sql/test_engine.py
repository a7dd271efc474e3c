"""Unit tests for the SQL engine: parser, planner, executor."""

import pytest

from repro.sql import Database, SQLExecutionError, SQLParseError
from repro.sql.executor import ExecutorOptions
from repro.sql.parser import parse
from repro.sql import ast as S


@pytest.fixture
def db():
    db = Database()
    db.create_table("users", ("id", "name", "role_id"))
    db.create_table("roles", ("role_id", "role_name"))
    db.insert_many("users", [
        {"id": 1, "name": "alice", "role_id": 10},
        {"id": 2, "name": "bob", "role_id": 20},
        {"id": 3, "name": "carol", "role_id": 10},
    ])
    db.insert_many("roles", [
        {"role_id": 10, "role_name": "admin"},
        {"role_id": 20, "role_name": "user"},
    ])
    return db


class TestParser:
    def test_parse_basic_select(self):
        stmt = parse("SELECT * FROM users")
        assert stmt.items[0].expr == S.Star(None)
        assert stmt.sources[0].table == "users"

    def test_parse_full_clause_set(self):
        stmt = parse("SELECT DISTINCT t0.id AS uid FROM users AS t0 "
                     "WHERE t0.role_id = 10 AND t0.id > 1 "
                     "ORDER BY t0.id DESC LIMIT 5")
        assert stmt.distinct and stmt.limit == 5
        assert stmt.order_by[0].descending

    def test_parse_subquery_source(self):
        stmt = parse("SELECT * FROM (SELECT id FROM users) AS t0")
        assert isinstance(stmt.sources[0], S.SubquerySource)

    def test_parse_in_subquery(self):
        stmt = parse("SELECT * FROM users AS t0 WHERE t0.role_id IN "
                     "(SELECT role_id FROM roles)")
        assert isinstance(stmt.where, S.InSubquery)

    def test_parse_string_escapes(self):
        stmt = parse("SELECT * FROM users AS t0 WHERE t0.name = 'o''brien'")
        assert stmt.where.right.value == "o'brien"

    def test_parse_errors(self):
        with pytest.raises(SQLParseError):
            parse("SELECT FROM users")
        with pytest.raises(SQLParseError):
            parse("SELECT * FROM users WHERE")
        with pytest.raises(SQLParseError):
            parse("SELECT * FROM (SELECT id FROM users)")  # missing alias
        with pytest.raises(SQLParseError):
            parse("SELECT * FROM users; DROP TABLE users")


class TestExecutor:
    def test_where_and_order(self, db):
        rows = db.execute("SELECT * FROM users AS t0 WHERE t0.role_id = 10 "
                          "ORDER BY t0.id DESC").rows
        assert [r.id for r in rows] == [3, 1]

    def test_rowid_order_is_insertion_order(self, db):
        rows = db.execute("SELECT * FROM users AS t0 "
                          "ORDER BY t0._rowid").rows
        assert [r.id for r in rows] == [1, 2, 3]

    def test_limit_and_distinct(self, db):
        rows = db.execute("SELECT DISTINCT role_id FROM users AS t0 "
                          "ORDER BY t0._rowid LIMIT 1").rows
        assert [r.role_id for r in rows] == [10]

    def test_params(self, db):
        rows = db.execute("SELECT * FROM users AS t0 WHERE t0.id = :x",
                          {"x": 2}).rows
        assert [r.name for r in rows] == ["bob"]

    def test_unbound_param_raises(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT * FROM users AS t0 WHERE t0.id = :x")

    def test_aggregates(self, db):
        assert db.execute("SELECT COUNT(*) FROM users AS t0").scalar() == 3
        assert db.execute("SELECT MAX(id) FROM users AS t0").scalar() == 3
        assert db.execute("SELECT MIN(id) FROM users AS t0").scalar() == 1
        assert db.execute("SELECT SUM(id) FROM users AS t0").scalar() == 6

    def test_count_comparison(self, db):
        assert db.execute("SELECT COUNT(*) > 0 FROM users AS t0 "
                          "WHERE t0.id = 99").scalar() is False

    def test_empty_aggregate_identities(self, db):
        assert db.execute("SELECT COUNT(*) FROM users AS t0 "
                          "WHERE t0.id = 99").scalar() == 0
        assert db.execute("SELECT SUM(id) FROM users AS t0 "
                          "WHERE t0.id = 99").scalar() == 0

    def test_unknown_table_and_column(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT * FROM nope")
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT nope FROM users AS t0")


class TestPlanner:
    def test_equality_join_uses_hash_join(self, db):
        result = db.execute("SELECT t0.* FROM users AS t0, roles AS t1 "
                            "WHERE t0.role_id = t1.role_id")
        assert result.stats.hash_joins == 1
        assert result.stats.nested_loop_joins == 0

    def test_cross_join_uses_nested_loop(self, db):
        result = db.execute("SELECT t0.* FROM users AS t0, roles AS t1")
        assert result.stats.nested_loop_joins == 1
        assert len(result.rows) == 6

    def test_index_scan_on_equality(self, db):
        db.create_index("users", "role_id")
        result = db.execute("SELECT * FROM users AS t0 "
                            "WHERE t0.role_id = 10")
        assert result.stats.index_scans == 1
        assert result.stats.rows_scanned == 2  # only the bucket

    def test_full_scan_without_index(self, db):
        result = db.execute("SELECT * FROM users AS t0 "
                            "WHERE t0.role_id = 10")
        assert result.stats.full_scans == 1
        assert result.stats.rows_scanned == 3

    def test_join_output_order_is_left_major(self, db):
        rows = db.execute(
            "SELECT t0.*, t1.role_name FROM users AS t0, roles AS t1 "
            "WHERE t0.role_id = t1.role_id "
            "ORDER BY t0._rowid, t1._rowid").rows
        assert [r.id for r in rows] == [1, 2, 3]

    def test_whole_row_in_subquery(self, db):
        rows = db.execute(
            "SELECT * FROM users AS t0 WHERE t0 IN "
            "(SELECT * FROM users WHERE id > 1)").rows
        assert [r.id for r in rows] == [2, 3]


# -- ORDER BY on a missing column ----------------------------------------------

ORDER_MODES = {
    "seed": ExecutorOptions(planner=False),
    "planner": ExecutorOptions(),
}


@pytest.mark.parametrize("mode", sorted(ORDER_MODES))
@pytest.mark.parametrize("suffix", ["", " LIMIT 2"],
                         ids=["order-by", "order-by-limit"])
def test_order_by_missing_column_is_a_typed_error(mode, suffix):
    """A sort key naming a column its source lacks raises the same
    typed error as the reference does in WHERE or the select list, in
    every execution mode; with no rows there is no key to read."""
    db = Database()
    db.create_table("t", ("id", "v"))
    db.create_table("empty", ("id", "v"))
    db.insert_many("t", ({"id": i, "v": i % 3} for i in range(6)))
    view = db.view(ORDER_MODES[mode])
    with pytest.raises(SQLExecutionError,
                       match="no column 'nope' in source 't0'"):
        view.execute("SELECT t0.id FROM t t0 ORDER BY t0.nope" + suffix)
    empty = view.execute("SELECT t0.id FROM empty t0 ORDER BY t0.nope"
                         + suffix)
    assert empty.rows == []


#: sort-key values on which comparing raw values could differ from the
#: seed pipeline's wrapped keys: ties, equal numbers of other types,
#: NULLs (two NULLs are equal, a NULL and a number do not compare),
#: mixed types and values that compare only when unequal.
ORDER_VALUES = {
    "integers": [2, 0, True, 1, 0, 2],
    "numbers": [2, 1.5, True, 0, -1.0, 1, 2],
    "strings": ["b", "a", "c", "a"],
    "nulls": [3, None, 1, None],
    "all-null": [None, None, None],
    "mixed": [3, "a", 1],
    "tuples": [(1, None), (1, None), (0, 2)],
}


@pytest.mark.parametrize("values", sorted(ORDER_VALUES))
@pytest.mark.parametrize("order", ["", " DESC"], ids=["asc", "desc"])
def test_single_key_order_matches_the_seed_pipeline(values, order):
    """One sort key orders, and fails, as the seed pipeline does in
    every execution mode, whatever its values."""
    db = Database()
    db.create_table("t", ("id", "k"))
    db.insert_many("t", [{"id": i, "k": v}
                         for i, v in enumerate(ORDER_VALUES[values])])
    sql = "SELECT t0.id FROM t t0 ORDER BY t0.k" + order
    outcomes = {}
    for mode, options in ORDER_MODES.items():
        try:
            rows = db.view(options).execute(sql).rows
            outcomes[mode] = [row["id"] for row in rows]
        except TypeError as exc:
            outcomes[mode] = str(exc)
    assert outcomes["planner"] == outcomes["seed"]


@pytest.mark.parametrize("values", sorted(ORDER_VALUES))
@pytest.mark.parametrize("second", ["parity", "reversed"])
@pytest.mark.parametrize("order", ["", " DESC"], ids=["asc", "desc"])
def test_two_key_order_matches_the_seed_pipeline(values, second, order):
    """Two sort keys order, and fail, as the seed pipeline does in every
    execution mode: ties of the first key fall to the second, whose
    values are ints with ties or the first key's values reversed."""
    first = ORDER_VALUES[values]
    seconds = {"parity": [i % 2 for i in range(len(first))],
               "reversed": first[::-1]}[second]
    db = Database()
    db.create_table("t", ("id", "k", "j"))
    db.insert_many("t", [{"id": i, "k": k, "j": j}
                         for i, (k, j) in enumerate(zip(first, seconds))])
    sql = "SELECT t0.id FROM t t0 ORDER BY t0.k%s, t0.j" % order
    outcomes = {}
    for mode, options in ORDER_MODES.items():
        try:
            rows = db.view(options).execute(sql).rows
            outcomes[mode] = [row["id"] for row in rows]
        except TypeError as exc:
            outcomes[mode] = str(exc)
    assert outcomes["planner"] == outcomes["seed"]
