"""The GROUP BY and three-table-join corpus fragments, end to end.

Acceptance cut of the planner work: both fragments synthesize (with
formal validation on), translate to SQL that uses the new operators
(GROUP BY; a three-source hash-join chain), execute observably
equivalent to the original code, and surface the expected plan shapes
through EXPLAIN.
"""

import pytest

from repro.core.qbs import QBS
from repro.core.transform import TransformedFragment, entity_rows
from repro.corpus.advanced import create_advanced_database, \
    make_advanced_service
from repro.corpus.registry import fragment_by_id, run_fragment_through_qbs
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions
from repro.tor.pretty import pretty


@pytest.fixture(scope="module")
def results():
    qbs = QBS()
    return {fid: run_fragment_through_qbs(fragment_by_id(fid), qbs)
            for fid in ("adv_groupcnt", "adv_chain")}


@pytest.fixture(scope="module")
def db():
    db = create_advanced_database()
    db.insert_many("r", ({"id": i, "a": i % 7} for i in range(40)))
    db.insert_many("s", ({"id": i, "b": i % 7} for i in range(25)))
    db.insert_many("t", ({"id": i} for i in range(30)))
    db.insert_many("u", ({"id": i, "c": i % 9} for i in range(20)))
    return db


def test_group_fragment_translates_to_group_by(results):
    result = results["adv_groupcnt"]
    assert result.translated
    assert result.sql.sql == (
        "SELECT t0.a, COUNT(*) AS matches FROM r AS t0, s AS t1 "
        "WHERE t0.a = t1.b GROUP BY t0._rowid")
    assert result.sql.columns == ("a", "matches")
    assert "group[" in pretty(result.postcondition_expr)


def test_chain_fragment_translates_to_three_sources(results):
    result = results["adv_chain"]
    assert result.translated
    sql = result.sql.sql
    assert sql.count(" AS t") == 3  # three FROM aliases
    assert "t0.a = t1.b" in sql and "t1.id = t2.c" in sql


def test_group_fragment_is_observationally_equivalent(results, db):
    service = make_advanced_service(db)
    original = entity_rows(service.adv_group_count())
    inferred = TransformedFragment(results["adv_groupcnt"]).execute(db)
    assert tuple(original) == tuple(inferred)
    assert len(inferred) > 0  # the dataset exercises real groups


def test_chain_fragment_is_observationally_equivalent(results, db):
    service = make_advanced_service(db)
    original = entity_rows(service.adv_chain_join())
    inferred = TransformedFragment(results["adv_chain"]).execute(db)
    assert tuple(original) == tuple(inferred)
    assert len(inferred) > 0


def test_chain_sql_is_mode_identical(results, db):
    sql = results["adv_chain"].sql.sql
    planned = db.execute(sql)
    legacy = Database(ExecutorOptions(planner=False))
    legacy.catalog = db.catalog
    legacy.executor.catalog = db.catalog
    assert list(planned.rows) == list(legacy.execute(sql).rows)


def test_group_sql_is_mode_identical(results, db):
    """The grouped fragment's SQL against the seed pipeline's own
    GROUP BY: same rows, columns and statistics."""
    sql = results["adv_groupcnt"].sql.sql
    planned = db.execute(sql)
    legacy = db.view(ExecutorOptions(planner=False)).execute(sql)
    assert len(planned.rows) > 0
    assert list(planned.rows) == list(legacy.rows)
    assert planned.columns == legacy.columns
    assert planned.stats == legacy.stats


def test_explain_shows_hash_join_chain(results, db):
    text = db.explain(results["adv_chain"].sql.sql)
    assert text.count("HashJoin") == 2
    assert "FullScan(r AS t0)" in text


def test_explain_shows_group_operator(results, db):
    text = db.explain(results["adv_groupcnt"].sql.sql)
    assert "GroupBy(t0._rowid)" in text
    assert "HashJoin(t0.a = t1.b)" in text
