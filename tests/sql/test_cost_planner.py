"""The cost-based planner: join-order search, order restoration,
cost-driven access paths, and mode equivalence against the greedy
planner and the seed pipeline."""

import pytest

from repro.sql import Database, ExecutorOptions


@pytest.fixture(scope="module")
def skew_db():
    """A join graph where FROM order is the wrong order.

    ``a ⋈ b`` on a 10-value key explodes (40·40/10 = 160 rows);
    starting from the selective ``c`` side keeps every intermediate
    small.  FROM order lists ``a, b, c`` so the greedy chain pays the
    explosion and the cost-based search must not.
    """
    db = Database()
    db.create_table("a", ("id", "k"))
    db.create_table("b", ("id", "k", "m"))
    db.create_table("c", ("id", "m"))
    db.insert_many("a", ({"id": i, "k": i % 10} for i in range(40)))
    db.insert_many("b", ({"id": i, "k": i % 10, "m": i}
                         for i in range(40)))
    db.insert_many("c", ({"id": i, "m": i} for i in range(12)))
    return db


SKEW_SQL = ("SELECT a.id, b.id, c.id FROM a, b, c "
            "WHERE a.k = b.k AND b.m = c.m AND c.id = 3")


class TestJoinOrderSearch:
    def test_reorders_and_restores(self, skew_db):
        text = skew_db.explain(SKEW_SQL)
        assert "Restore(a, b, c)" in text
        assert text.count("HashJoin") == 2

    def test_greedy_mode_keeps_from_order(self, skew_db):
        greedy = skew_db.view(ExecutorOptions(cost_based=False))
        text = greedy.explain(SKEW_SQL)
        assert "Restore" not in text
        assert "est_rows" not in text and "cost=" not in text

    def test_rows_columns_stats_identical_across_modes(self, skew_db):
        cost = skew_db.execute(SKEW_SQL)
        greedy = skew_db.view(
            ExecutorOptions(cost_based=False)).execute(SKEW_SQL)
        seed = skew_db.view(
            ExecutorOptions(planner=False)).execute(SKEW_SQL)
        for other in (greedy, seed):
            assert list(cost.rows) == list(other.rows)
            assert cost.columns == other.columns
        # Same join strategies -> same engine statistics.
        assert cost.stats.hash_joins == greedy.stats.hash_joins
        assert cost.stats.rows_scanned == greedy.stats.rows_scanned
        assert cost.stats.nested_loop_joins == \
            greedy.stats.nested_loop_joins

    def test_reordered_plan_does_less_work(self, skew_db):
        from repro.sql.parser import parse
        from repro.sql.plan import plan_select
        from repro.sql.executor import ExecutionStats

        def peak_join_rows(options):
            plan = plan_select(parse(SKEW_SQL), skew_db.catalog, options)
            plan.execute(skew_db.executor, {}, ExecutionStats())

            def walk(op):
                out = [op]
                for child in op.children:
                    out.extend(walk(child))
                return out

            return max(op.rows_out or 0 for op in walk(plan.root)
                       if "Join" in op.name)

        cost_peak = peak_join_rows(ExecutorOptions())
        greedy_peak = peak_join_rows(ExecutorOptions(cost_based=False))
        assert cost_peak * 10 <= greedy_peak  # 16 vs 160 intermediates

    def test_cost_tie_keeps_from_order(self):
        db = Database()
        db.create_table("x", ("id", "k"))
        db.create_table("y", ("id", "k"))
        db.insert_many("x", ({"id": i, "k": i % 3} for i in range(9)))
        db.insert_many("y", ({"id": i, "k": i % 3} for i in range(9)))
        text = db.explain("SELECT * FROM x, y WHERE x.k = y.k")
        assert "Restore" not in text


class TestOrderSensitiveShapesUnderReorder:
    """Everything that observes row order must see FROM order."""

    def test_star_expansion_column_order(self, skew_db):
        cost = skew_db.execute(SKEW_SQL.replace("a.id, b.id, c.id", "*"))
        seed = skew_db.view(ExecutorOptions(planner=False)).execute(
            SKEW_SQL.replace("a.id, b.id, c.id", "*"))
        assert cost.columns == seed.columns
        assert list(cost.rows) == list(seed.rows)

    def test_group_first_encounter_order(self, skew_db):
        sql = ("SELECT a.k, COUNT(*) AS n FROM a, b, c "
               "WHERE a.k = b.k AND b.m = c.m GROUP BY a.k")
        grouped = skew_db.execute(sql)
        serial_keys = [row["k"] for row in grouped.rows]
        # First-encounter order over the FROM-order enumeration is
        # a's storage order of first appearance: 0, 1, 2, ...
        assert serial_keys == sorted(serial_keys)

    def test_order_by_and_limit(self, skew_db):
        sql = SKEW_SQL + " ORDER BY b.id DESC LIMIT 5"
        cost = skew_db.execute(sql)
        seed = skew_db.view(ExecutorOptions(planner=False)).execute(sql)
        assert list(cost.rows) == list(seed.rows)


class TestCostDrivenAccessPaths:
    def test_picks_most_selective_index(self):
        db = Database()
        db.create_table("t", ("id", "coarse", "fine"))
        db.create_index("t", "coarse")
        db.create_index("t", "fine")
        db.insert_many("t", ({"id": i, "coarse": i % 2, "fine": i % 50}
                             for i in range(100)))
        # Greedy takes the first indexable conjunct (coarse); the cost
        # rule prefers the smaller bucket (fine, ndv 50 vs 2).
        sql = "SELECT t0.id FROM t t0 WHERE t0.coarse = 1 AND t0.fine = 3"
        assert "IndexScan(t AS t0, fine = 3)" in db.explain(sql)
        greedy = db.view(ExecutorOptions(cost_based=False))
        assert "IndexScan(t AS t0, coarse = 1)" in greedy.explain(sql)
        assert list(db.execute(sql).rows) == \
            list(greedy.execute(sql).rows)

    def test_estimates_on_every_line(self, skew_db):
        text = skew_db.explain(SKEW_SQL, analyze=True)
        for line in text.splitlines():
            assert "est_rows=" in line and "cost=" in line, line


class TestAmbiguousBareColumnsVetoReorder:
    """The executor resolves bare columns by env insertion order (the
    join-chain order), which Restore cannot repair — so the planner
    must keep FROM order whenever a bare reference could resolve
    against more than one source."""

    @pytest.fixture(scope="class")
    def amb_db(self):
        db = Database()
        db.create_table("a", ("id", "k", "x"))
        db.create_table("b", ("id", "k"))
        db.create_table("c", ("id", "x"))
        db.insert_many("a", ({"id": i, "k": i % 2, "x": 1000 + i}
                             for i in range(6)))
        db.insert_many("b", ({"id": i, "k": i % 2} for i in range(6)))
        db.insert_many("c", ({"id": i, "x": i} for i in range(2)))
        return db

    AMB_SQL = ("SELECT x FROM a, b, c "
               "WHERE a.k = b.k AND b.id = c.id")

    def test_ambiguous_bare_select_item(self, amb_db):
        # The reorder-tempting layout (c is tiny and selective) must
        # not reorder: bare `x` lives in both a and c.
        text = amb_db.explain(self.AMB_SQL)
        assert "Restore" not in text
        cost = amb_db.execute(self.AMB_SQL)
        for options in (ExecutorOptions(cost_based=False),
                        ExecutorOptions(planner=False)):
            other = amb_db.view(options).execute(self.AMB_SQL)
            assert list(cost.rows) == list(other.rows)
            assert cost.columns == other.columns

    def test_bare_rowid_vetoes(self, amb_db):
        sql = ("SELECT _rowid FROM a, b, c "
               "WHERE a.k = b.k AND b.id = c.id")
        assert "Restore" not in amb_db.explain(sql)
        seed = amb_db.view(ExecutorOptions(planner=False)).execute(sql)
        assert list(amb_db.execute(sql).rows) == list(seed.rows)

    def test_unambiguous_bare_column_still_reorders(self, amb_db):
        # Bare `k` is exposed by a and b -> ambiguous -> veto; but a
        # column unique to one source keeps the search enabled.
        db = Database()
        db.create_table("a", ("id", "k", "only_a"))
        db.create_table("b", ("id", "k", "m"))
        db.create_table("c", ("id", "m"))
        db.insert_many("a", ({"id": i, "k": i % 10, "only_a": i}
                             for i in range(40)))
        db.insert_many("b", ({"id": i, "k": i % 10, "m": i}
                             for i in range(40)))
        db.insert_many("c", ({"id": i, "m": i} for i in range(12)))
        sql = ("SELECT only_a FROM a, b, c "
               "WHERE a.k = b.k AND b.m = c.m AND c.id = 3")
        assert "Restore(a, b, c)" in db.explain(sql)
        seed = db.view(ExecutorOptions(planner=False)).execute(sql)
        assert list(db.execute(sql).rows) == list(seed.rows)
