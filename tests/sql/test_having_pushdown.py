"""HAVING pushdown: group-key-only conjuncts move into WHERE.

Planner-equivalence (toggle on vs. off, identical rows over every
shape), plan-shape checks (pushed conjunct shows up as a scan filter),
and pretty round-trips — the rewrite is planner-internal and must not
disturb the parsed AST or its SQL rendering."""

import pytest

from repro.sql import Database, ExecutorOptions
from repro.sql.parser import parse
from repro.sql.pretty import to_sql


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.create_table("ev", ("id", "g", "h", "v"))
    db.create_index("ev", "g")
    db.insert_many("ev", ({"id": i, "g": i % 5, "h": i % 3, "v": i}
                          for i in range(40)))
    return db


HAVING_BATTERY = [
    # Pure group-key conjunct: fully pushable, HAVING disappears.
    "SELECT e.g, COUNT(*) AS n FROM ev e GROUP BY e.g HAVING e.g > 1",
    # Mixed AND: the key conjunct pushes, the aggregate stays.
    "SELECT e.g, COUNT(*) AS n FROM ev e GROUP BY e.g "
    "HAVING e.g > 1 AND COUNT(*) > 3",
    # Equality on an indexed group key: pushes all the way to a probe.
    "SELECT e.g, SUM(e.v) AS s FROM ev e GROUP BY e.g HAVING e.g = 2",
    # Two group keys, conjunct over both.
    "SELECT e.g, e.h, COUNT(*) AS n FROM ev e GROUP BY e.g, e.h "
    "HAVING e.g > e.h",
    # OR inside one conjunct over keys only: still pushable.
    "SELECT e.g, COUNT(*) AS n FROM ev e GROUP BY e.g "
    "HAVING e.g = 1 OR e.g = 3",
    # Aggregate-only HAVING: nothing to push.
    "SELECT e.g, COUNT(*) AS n FROM ev e GROUP BY e.g "
    "HAVING COUNT(*) > 7",
    # Non-key column: must NOT push (h varies within a g-group).
    "SELECT e.g, MAX(e.h) AS m FROM ev e GROUP BY e.g HAVING e.h > 0",
]


@pytest.mark.parametrize("sql", HAVING_BATTERY)
def test_pushdown_is_equivalent(db, sql):
    on = db.execute(sql)
    off = db.view(
        ExecutorOptions(having_pushdown=False)).execute(sql)
    assert list(on.rows) == list(off.rows), sql
    assert on.columns == off.columns, sql


def test_pushed_conjunct_becomes_scan_filter(db):
    sql = ("SELECT e.g, COUNT(*) AS n FROM ev e GROUP BY e.g "
           "HAVING e.g > 1 AND COUNT(*) > 3")
    text = db.explain(sql)
    assert "filter=1" in text                 # key conjunct at the scan
    assert "having COUNT(*) > 3" in text      # aggregate conjunct stays
    assert "e.g > 1" not in text.split("\n")[0]
    off = db.view(ExecutorOptions(having_pushdown=False)).explain(sql)
    assert "having e.g > 1 AND COUNT(*) > 3" in off
    assert "filter=" not in off


def test_pushed_equality_reaches_the_index(db):
    sql = ("SELECT e.g, SUM(e.v) AS s FROM ev e GROUP BY e.g "
           "HAVING e.g = 2")
    text = db.explain(sql)
    assert "IndexScan(ev AS e, g = 2)" in text
    assert "having" not in text


def test_non_key_column_stays_in_having(db):
    text = db.explain("SELECT e.g, MAX(e.h) AS m FROM ev e "
                      "GROUP BY e.g HAVING e.h > 0")
    assert "having e.h > 0" in text
    assert "filter=" not in text


@pytest.mark.parametrize("sql", HAVING_BATTERY)
def test_pretty_roundtrip_is_untouched(db, sql):
    """The rewrite is planner-internal: the parsed AST still renders
    and re-parses to itself after planning and execution."""
    select = parse(sql)
    db.execute(sql)                     # plan + run (mutates nothing)
    assert parse(to_sql(select)) == select
    assert parse(to_sql(parse(sql))) == select


def test_plan_cache_reuse_is_stable(db):
    """Database caches the statement's plan (with HAVING pushed down);
    a repeated execution reuses it and must produce the same result."""
    sql = ("SELECT e.g, COUNT(*) AS n FROM ev e GROUP BY e.g "
           "HAVING e.g > 1 AND COUNT(*) > 3")
    first = db.execute(sql)
    second = db.execute(sql)
    assert list(first.rows) == list(second.rows)
