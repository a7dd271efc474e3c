"""The query planner: plan shapes, optimizer rules, EXPLAIN output."""

import pytest

from repro.sql import Database, SQLExecutionError
from repro.sql.executor import ExecutorOptions
from repro.sql.parser import parse
from repro.sql.plan import build_logical, optimize, plan_select
from repro.sql.plan import logical as L


@pytest.fixture
def db():
    db = Database()
    db.create_table("participant", ("id", "login", "role_id"))
    db.create_table("role", ("role_id", "role_name"))
    db.create_table("role_descriptor", ("id", "role_id", "descriptor_name"))
    db.create_index("participant", "id")
    db.create_index("role", "role_id")
    db.insert_many("participant", [
        {"id": i, "login": "u%d" % i, "role_id": i % 3} for i in range(9)])
    db.insert_many("role", [
        {"role_id": i, "role_name": "r%d" % i} for i in range(3)])
    db.insert_many("role_descriptor", [
        {"id": i, "role_id": i % 3, "descriptor_name": "d%d" % i}
        for i in range(12)])
    return db


THREE_WAY = ("SELECT t0.login, t2.descriptor_name "
             "FROM participant t0, role t1, role_descriptor t2 "
             "WHERE t0.role_id = t1.role_id AND t2.role_id = t1.role_id")


class TestLogicalBuilder:
    def test_select_builds_canonical_tree(self):
        plan = build_logical(parse(
            "SELECT t0.id FROM participant t0 WHERE t0.id = 1 "
            "ORDER BY t0.id LIMIT 2"))
        assert isinstance(plan, L.Limit)
        project = plan.child
        assert isinstance(project, L.Project)
        sort = project.child
        assert isinstance(sort, L.Sort) and sort.top_k == 2
        assert isinstance(sort.child, L.Filter)
        assert isinstance(sort.child.child, L.Scan)

    def test_grouped_select_builds_aggregate(self):
        plan = build_logical(parse(
            "SELECT t0.role_id, COUNT(*) FROM participant t0 "
            "GROUP BY t0.role_id HAVING COUNT(*) > 1"))
        assert isinstance(plan, L.Aggregate)
        assert plan.group_by and plan.having is not None

    def test_distinct_keeps_full_sort(self):
        plan = build_logical(parse(
            "SELECT DISTINCT t0.id FROM participant t0 "
            "ORDER BY t0.id LIMIT 2"))
        # DISTINCT must see the whole ordered set: no top-k bound.
        node = plan
        while not isinstance(node, L.Sort):
            node = node.children()[0]
        assert node.top_k is None


class TestOptimizer:
    def test_pushdown_and_join_chain(self, db):
        plan = optimize(build_logical(parse(THREE_WAY)), db.catalog)
        project = plan
        assert isinstance(project, L.Project)
        outer = project.child
        assert isinstance(outer, L.Join) and outer.strategy == "hash"
        inner = outer.left
        assert isinstance(inner, L.Join) and inner.strategy == "hash"
        assert isinstance(inner.left, L.Scan)

    def test_index_scan_selected(self, db):
        plan = optimize(build_logical(parse(
            "SELECT * FROM participant t0 WHERE t0.id = 4")), db.catalog)
        scan = plan.child
        assert isinstance(scan, L.Scan)
        assert scan.index is not None and scan.index[0] == "id"
        # The probe consumes the predicate: no residual filter remains.
        assert "filter=" not in db.explain(
            "SELECT * FROM participant t0 WHERE t0.id = 4")

    def test_rules_can_be_disabled(self, db):
        options = ExecutorOptions(index_scans=False, hash_joins=False)
        plan = optimize(build_logical(parse(THREE_WAY)), db.catalog,
                        options)
        node = plan
        while not isinstance(node, L.Join):
            node = node.children()[0]
        assert node.strategy == "nested"
        scan_plan = optimize(build_logical(parse(
            "SELECT * FROM participant t0 WHERE t0.id = 4")), db.catalog,
            options)
        assert scan_plan.child.index is None


class TestExplain:
    def test_explain_shows_hash_join_chain_and_index_scans(self, db):
        text = db.explain(THREE_WAY)
        assert text.count("HashJoin") == 2
        assert "FullScan(participant AS t0)" in text
        indexed = db.explain("SELECT * FROM participant t0 "
                             "WHERE t0.id = 4")
        assert "IndexScan(participant AS t0, id = 4)" in indexed

    def test_explain_analyze_reports_per_operator_rows(self, db):
        text = db.explain(THREE_WAY, analyze=True)
        assert "[rows=" in text
        # Every operator line carries its cardinality.
        assert all("[rows=" in line for line in text.splitlines())

    def test_explain_nested_loop_when_no_connector(self, db):
        text = db.explain("SELECT COUNT(*) FROM participant t0, role t1")
        assert "NestedLoop" in text and "HashJoin" not in text


class TestExecutionModes:
    def test_planner_stats_match_legacy(self, db):
        planned = db.execute(THREE_WAY)
        legacy_db = Database(ExecutorOptions(planner=False))
        legacy_db.catalog = db.catalog
        legacy_db.executor.catalog = db.catalog
        legacy = legacy_db.execute(THREE_WAY)
        assert list(planned.rows) == list(legacy.rows)
        assert planned.columns == legacy.columns
        for field in ("rows_scanned", "index_probes", "hash_joins",
                      "nested_loop_joins", "index_scans", "full_scans"):
            assert getattr(planned.stats, field) == \
                getattr(legacy.stats, field), field

    def test_legacy_groups_like_the_planner(self, db):
        """The seed pipeline runs GROUP BY / HAVING itself, so grouped
        queries have an oracle independent of the planned engine."""
        legacy_db = Database(ExecutorOptions(planner=False))
        legacy_db.catalog = db.catalog
        legacy_db.executor.catalog = db.catalog
        sql = ("SELECT t0.role_id, COUNT(*) AS n FROM participant t0 "
               "GROUP BY t0.role_id HAVING COUNT(*) > 1 ORDER BY n DESC")
        planned = db.execute(sql)
        legacy = legacy_db.execute(sql)
        assert len(planned.rows) > 1
        assert list(legacy.rows) == list(planned.rows)
        assert legacy.columns == planned.columns
        assert legacy.stats == planned.stats
        with pytest.raises(SQLExecutionError, match="grouped select list"):
            legacy_db.execute("SELECT * FROM participant t0 "
                              "GROUP BY t0.role_id")

    def test_hash_join_ablation_changes_plan_not_rows(self, db):
        ablated = Database(ExecutorOptions(hash_joins=False,
                                           index_scans=False))
        ablated.catalog = db.catalog
        ablated.executor.catalog = db.catalog
        assert list(ablated.execute(THREE_WAY).rows) == \
            list(db.execute(THREE_WAY).rows)
        assert "NestedLoop" in ablated.explain(THREE_WAY)


def test_plan_select_facade(db):
    from repro.sql.executor import ExecutionStats

    plan = plan_select(parse(THREE_WAY), db.catalog)
    result = plan.execute(db.executor, {}, ExecutionStats())
    assert result.columns == ("login", "descriptor_name")
