"""The statement cache: ``Database.execute`` plans each statement once.

A hit must be exactly the plan ``plan_select`` would build now, so
every test here compares against a fresh plan or a fresh ``view()``.
Misses are counted by wrapping ``repro.sql.plan.plan_select``, the one
seam every planning call goes through.
"""

import re
import sys
import threading
import time

import pytest

from repro.obs.profile import NO_SPAN, Profiler
from repro.obs.trace import format_tree
from repro.service import faults
from repro.service.faults import DeadlineExceeded, FaultPlan
from repro.sql import plan as plan_mod
from repro.sql.database import Database
from repro.sql.errors import SQLExecutionError
from repro.sql.executor import Executor, ExecutorOptions
from repro.sql.parser import parse
from repro.sql.plan import PhysicalPlan, render
from repro.sql.plan.physical import PhysicalOp
from repro.tor.values import Record

POINT = "SELECT * FROM a AS t0 WHERE t0.k = :key"
STATEMENTS = [
    (POINT, [{"key": k} for k in (1, 2, 3, 1, 99)]),
    ("SELECT t1.* FROM a t0, b t1 WHERE t0.k = t1.k AND t1.v > :v "
     "ORDER BY t1.id DESC", [{"v": v} for v in (0, 4, 9, 0)]),
    ("SELECT t0.k, COUNT(*) AS n, SUM(t0.id) AS s FROM a t0 "
     "GROUP BY t0.k HAVING COUNT(*) > :m", [{"m": m} for m in (0, 2, 0)]),
    ("SELECT q.* FROM (SELECT t.id, t.v FROM b t WHERE t.v < :v) q",
     [{"v": v} for v in (3, 7, 3)]),
    ("SELECT t0.id FROM a t0 WHERE t0.k IN "
     "(SELECT t1.k FROM b t1 WHERE t1.v = :v)", [{"v": v} for v in (1, 2)]),
]


def _stats(stats):
    return (stats.rows_scanned, stats.index_probes, stats.hash_joins,
            stats.nested_loop_joins, stats.index_scans, stats.full_scans)


def _db(options=None, shift=0):
    db = Database(options)
    db.create_table("a", ("id", "k"))
    db.create_table("b", ("id", "k", "v"))
    db.create_table("c", ("id", "v"))
    db.insert_many("a", ({"id": i, "k": (i + shift) % 4}
                         for i in range(12)))
    db.insert_many("b", ({"id": i, "k": (i + shift) % 3, "v": i % 10}
                         for i in range(20)))
    db.insert_many("c", ({"id": i, "v": i % 5} for i in range(6)))
    db.create_index("a", "k")
    return db


@pytest.fixture
def plans(monkeypatch):
    """Counts ``plan_select`` calls: the statement-cache misses."""
    calls = []
    original = plan_mod.plan_select

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(plan_mod, "plan_select", counting)
    return calls


def _cached_plan(db, sql):
    ((_, plan),) = db._statements[sql].idle
    return plan


def _same_result(result, expected):
    assert list(result.rows) == list(expected.rows)
    assert result.columns == expected.columns
    assert _stats(result.stats) == _stats(expected.stats)


@pytest.mark.parametrize("sql, bindings", STATEMENTS,
                         ids=["point", "join-star", "having", "from-sub",
                              "in-sub"])
def test_hit_equals_fresh_view(plans, sql, bindings):
    db = _db()
    seed = db.view(ExecutorOptions(planner=False))
    for params in bindings:
        hit = db.execute(sql, params)
        _same_result(hit, db.view().execute(sql, params))
        _same_result(hit, seed.execute(sql, params))
    # One top-level plan on the cached handle and one per fresh view;
    # nested subqueries still plan on every call.
    assert plans.count(parse(sql)) == 1 + len(bindings)


def _insert(db):
    db.insert("a", {"id": 100, "k": 1})


def _insert_through_view(db):
    db.view().insert("a", {"id": 100, "k": 1})


def _create_index(db):
    db.create_index("b", "k")


def _analyze_behind_api(db):
    table = db.table("b")
    for i in range(40):
        table.rows.append(Record({"id": 100 + i, "k": 1, "v": 1}))
    db.analyze("b")


def _drop_and_create(db):
    # The new table ends at the old one's data_version (20 inserts), so
    # only the catalog's version tells the two apart.
    db.catalog.drop_table("b")
    db.create_table("b", ("id", "k", "v"))
    db.insert_many("b", ({"id": i, "k": 0, "v": i} for i in range(20)))


def _insert_into_subquery_table(db):
    db.insert("c", {"id": 100, "v": 0})


JOIN = ("SELECT t0.id, t1.v FROM a t0, b t1 WHERE t0.k = t1.k "
        "AND t0.k = :key ORDER BY t0.id, t1.id")
FROM_SUB = ("SELECT t0.id, q.v FROM a t0, "
            "(SELECT t.id, t.v FROM c t WHERE t.v < 3) q "
            "WHERE t0.id = q.id")
PAR_JOIN = ("SELECT t0.id, t1.id FROM a t0, b t1 WHERE t0.k = t1.k "
            "ORDER BY t0.id, t1.id")


@pytest.mark.parametrize("mutate, sql", [
    (_insert, JOIN),
    (_insert_through_view, JOIN),
    (_create_index, JOIN),
    (_analyze_behind_api, JOIN),
    (_drop_and_create, JOIN),
    (_insert_into_subquery_table, FROM_SUB),
], ids=["insert", "insert-via-view", "create-index", "analyze",
        "drop-create", "subquery-table"])
def test_mutation_replans(plans, mutate, sql):
    db = _db()
    top = parse(sql)
    params = {"key": 1} if ":key" in sql else {}
    db.execute(sql, params)
    db.execute(sql, params)
    assert plans.count(top) == 1                 # the second run hit
    mutate(db)
    result = db.execute(sql, params)
    assert plans.count(top) == 2                 # re-planned
    fresh = plan_mod.plan_select(top, db.catalog)
    assert "est_rows=" in render(fresh.root)
    assert render(_cached_plan(db, sql).root) == render(fresh.root)
    _same_result(result, db.view().execute(sql, params))
    count = plans.count(top)
    db.execute(sql, params)
    assert plans.count(top) == count             # cached again


def test_swapped_catalog_replans(plans):
    """The identity half of plan currency: a plan belongs to its
    catalog object.  Another catalog at the same ``version``, whose
    tables keep the same ``data_version`` s but hold other rows, makes
    the next run re-plan and read the new rows."""
    db = _db()
    top = parse(JOIN)
    first = db.execute(JOIN, {"key": 1})
    db.execute(JOIN, {"key": 1})
    assert plans.count(top) == 1
    old, new = db.catalog, _db(shift=1).catalog
    assert new.version == old.version
    assert {name: t.data_version for name, t in new.tables.items()} == \
        {name: t.data_version for name, t in old.tables.items()}
    db.catalog = db.executor.catalog = new
    result = db.execute(JOIN, {"key": 1})
    assert plans.count(top) == 2                 # re-planned
    db.execute(JOIN, {"key": 1})
    assert plans.count(top) == 2                 # cached again
    _same_result(result, db.view().execute(JOIN, {"key": 1}))
    assert list(result.rows) != list(first.rows)


def test_unbound_parameter_leaves_no_plan(plans):
    db = _db()
    with pytest.raises(SQLExecutionError, match="unbound parameter :key"):
        db.execute(POINT)
    assert plans == []
    assert db._statements[POINT].idle == []
    assert len(db.execute(POINT, {"key": 1}).rows) == 3


def test_run_that_raises_leaves_no_plan(plans):
    db = _db()
    sql = "SELECT t0.id FROM a t0 WHERE t0.id < :bound"
    db.execute(sql, {"bound": 3})
    assert len(db._statements[sql].idle) == 1
    with pytest.raises(TypeError):
        db.execute(sql, {"bound": "x"})       # int < str, mid-run
    assert db._statements[sql].idle == []
    before = len(plans)
    assert [r.id for r in db.execute(sql, {"bound": 3}).rows] == [0, 1, 2]
    assert len(plans) == before + 1


def test_point_lookup_that_raises_leaves_no_plan(plans):
    db = _db()
    db.execute(POINT, {"key": 1})
    with pytest.raises(TypeError):
        db.execute(POINT, {"key": [1]})       # unhashable, in the probe
    assert db._statements[POINT].idle == []
    before = len(plans)
    assert [r.id for r in db.execute(POINT, {"key": 1}).rows] == [1, 5, 9]
    assert len(plans) == before + 1


def test_deadline_exceeded_leaves_no_plan(plans):
    db = _db()
    view = db.view(ExecutorOptions(parallel=3, deadline_seconds=0.2))
    view.execute(PAR_JOIN)
    assert len(view._statements[PAR_JOIN].idle) == 1
    hang = FaultPlan(faults={"part:1": faults.HANG}, hang_seconds=1.0)
    with faults.injected(hang):
        with pytest.raises(DeadlineExceeded):
            view.execute(PAR_JOIN)
    assert view._statements[PAR_JOIN].idle == []
    before = plans.count(parse(PAR_JOIN))
    _same_result(view.execute(PAR_JOIN), db.execute(PAR_JOIN))
    assert plans.count(parse(PAR_JOIN)) == before + 2


def test_reentrant_run_gets_its_own_plan(monkeypatch):
    db = _db()
    db.execute(POINT, {"key": 1})
    cached = _cached_plan(db, POINT)
    seen = []
    inner = []
    original = PhysicalPlan.execute

    def execute(plan, executor, params, stats):
        seen.append(plan)
        if len(seen) == 1:
            # The outer run holds the cached plan: run the statement
            # again before the outer one's operators have run.
            inner.append(db.execute(POINT, {"key": 2}))
        return original(plan, executor, params, stats)

    monkeypatch.setattr(PhysicalPlan, "execute", execute)
    outer = db.execute(POINT, {"key": 1})
    assert seen[0] is cached
    assert seen[1] is not cached
    assert [r.id for r in outer.rows] == [1, 5, 9]
    assert [r.id for r in inner[0].rows] == [2, 6, 10]
    assert len(db._statements[POINT].idle) == 1


def test_concurrent_runs_never_share_a_plan():
    """Threads running one statement on one handle each hold a plan of
    their own.  A partitioned plan keeps per-run state (the key's row
    slices) on its operators, so two runs sharing one would mix keys
    or lose that state mid-run."""
    db = _db()
    view = db.view(ExecutorOptions(parallel=2))
    expected = {key: list(db.execute(JOIN, {"key": key}).rows)
                for key in range(4)}
    failures = []

    def worker(offset):
        try:
            for i in range(60):
                key = (i + offset) % 4
                rows = list(view.execute(JOIN, {"key": key}).rows)
                if rows != expected[key]:
                    failures.append((key, rows))
        except Exception as exc:     # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_seed_pipeline_never_plans(plans):
    legacy = _db().view(ExecutorOptions(planner=False))
    for sql, bindings in STATEMENTS:
        if "GROUP BY" in sql:
            continue
        for params in bindings:
            legacy.execute(sql, params)
    assert plans == []


def _operators(op):
    yield op
    scan = getattr(op, "scan", None)
    if scan is not None:
        yield from _operators(scan)
    for child in op.children:
        yield from _operators(child)


def test_cached_parallel_plan_holds_no_rows():
    db = _db()
    view = db.view(ExecutorOptions(parallel=2))
    sql = PAR_JOIN
    first = view.execute(sql)
    plan = _cached_plan(view, sql)
    ops = list(_operators(plan.root))
    assert any(op.describe().startswith("PartitionedHashJoin(")
               for op in ops)
    for op in ops:
        held = [a for a in PhysicalOp._UNPICKLED_STATE if a in op.__dict__]
        assert held == [], (type(op).__name__, held)
    second = view.execute(sql)
    assert _cached_plan(view, sql) is plan
    _same_result(second, first)
    _same_result(second, db.execute(sql))


# -- SELECT * passes stored records through ------------------------------------


def test_star_returns_the_stored_records():
    db = _db()
    stored = db.table("a").rows
    rows = db.execute("SELECT * FROM a").rows
    assert all(row is record for row, record in zip(rows, stored))
    rows = db.execute(POINT, {"key": 1}).rows
    assert [row is stored[row.id] for row in rows] == [True] * 3
    joined = db.execute("SELECT t1.* FROM a t0, b t1 WHERE t0.k = t1.k")
    b_rows = db.table("b").rows
    assert all(row is b_rows[row.id] for row in joined.rows)
    seed = db.view(ExecutorOptions(planner=False))
    for sql in ("SELECT * FROM a",
                "SELECT t1.* FROM a t0, b t1 WHERE t0.k = t1.k"):
        _same_result(db.execute(sql), seed.execute(sql))
    # The records are shared; the list that holds them is the caller's.
    db.execute("SELECT * FROM a").rows.clear()
    assert len(stored) == 12


def test_star_rebuilds_rows_written_behind_the_api():
    """A record whose fields differ from the table's columns (here:
    another order) is projected, exactly as the seed pipeline does,
    whether a full scan or an index probe reads it."""
    db = _db()
    stored = db.table("a").rows
    stored.append(Record({"k": 1, "id": 50}))
    # The same values in another field order, at a position the index
    # on k lists under key 1.
    stored[5] = Record({"k": 1, "id": 5})
    seed = db.view(ExecutorOptions(planner=False))
    for sql in ("SELECT * FROM a", "SELECT t0.* FROM a t0"):
        result = db.execute(sql)
        _same_result(result, seed.execute(sql))
        assert result.rows[-1].fields == ("id", "k")
        assert result.rows[5].fields == ("id", "k")
    for sql in (POINT, "SELECT t0.* FROM a t0 WHERE t0.k = :key"):
        assert _operators_of(db.explain(sql)) == ["IndexScan"]
        result = db.execute(sql, {"key": 1})
        _same_result(result, seed.execute(sql, {"key": 1}))
        assert [row.id for row in result.rows] == [1, 5, 9]
        assert [row.fields for row in result.rows] == [("id", "k")] * 3
        assert result.rows[1] is not stored[5]


# -- a lone star over one unfiltered scan is the whole plan -------------------


def _operators_of(explain):
    """The operator names of an EXPLAIN tree, root first."""
    return re.findall(r"^[ ├└│─]*(\w+)", explain, re.M)


@pytest.mark.parametrize("sql, params", [
    ("SELECT * FROM d AS t0 WHERE t0.k = :key", {"key": 1}),
    ("SELECT * FROM d AS t0 WHERE t0.k = :key", {"key": 99}),
    ("SELECT t0.* FROM d t0", {}),
    ("SELECT * FROM e", {}),
], ids=["index", "index-no-rows", "full-scan", "full-scan-no-rows"])
def test_star_renames_duplicate_columns(sql, params):
    """A table created with a repeated column name stores records with
    one field per distinct name; ``*`` renames the repeat, as the seed
    pipeline does, also when no row comes back."""
    db = Database()
    db.create_table("d", ["k", "k", "v"])
    db.create_table("e", ["k", "k", "v"])
    db.insert_many("d", ({"k": i % 2, "v": i} for i in range(6)))
    db.create_index("d", "k")
    assert _operators_of(db.explain(sql)) in (["IndexScan"], ["FullScan"])
    result = db.execute(sql, params)
    assert result.columns == ("k", "k_2", "v")
    assert all(row.k == row.k_2 for row in result.rows)
    _same_result(result, db.view(ExecutorOptions(planner=False))
                 .execute(sql, params))
    _same_result(db.execute(sql, params), result)          # a hit


@pytest.mark.parametrize("sql, operators, key_1_rows", [
    (POINT + " LIMIT 2", ["Limit", "IndexScan"], 2),
    ("SELECT DISTINCT * FROM a AS t0 WHERE t0.k = :key",
     ["Distinct", "IndexScan"], 3),
    ("SELECT DISTINCT t0.* FROM a t0 WHERE t0.k = :key LIMIT 1",
     ["Limit", "Distinct", "IndexScan"], 1),
], ids=["limit", "distinct", "distinct-limit"])
def test_limit_and_distinct_sit_above_the_scan(sql, operators, key_1_rows):
    db = _db()
    db.insert("a", {"id": 1, "k": 1})            # a duplicate row
    seed = db.view(ExecutorOptions(planner=False))
    assert _operators_of(db.explain(sql)) == operators
    for key in (1, 2, 1, 99):
        result = db.execute(sql, {"key": key})
        _same_result(result, seed.execute(sql, {"key": key}))
    assert len(db.execute(sql, {"key": 1}).rows) == key_1_rows


@pytest.mark.parametrize("sql", [
    "SELECT * FROM a t0 WHERE t0.k = 1 AND t0.id > 4",
    "SELECT * FROM a t0 WHERE t0.k = 1 ORDER BY t0.id DESC",
    "SELECT t0.* FROM a t0, c t1 WHERE t0.id = t1.id AND t0.k = 1",
    "SELECT q.* FROM (SELECT * FROM a t WHERE t.k = 1) q",
    "SELECT t0.*, t0.id AS again FROM a t0 WHERE t0.k = 1",
], ids=["residual-filter", "order-by", "join", "from-subquery",
        "star-and-more"])
def test_other_star_shapes_keep_their_projection(sql):
    db = _db()
    assert _operators_of(db.explain(sql))[0] == "Project"
    _same_result(db.execute(sql),
                 db.view(ExecutorOptions(planner=False)).execute(sql))


@pytest.mark.parametrize("planner", [False, True], ids=["seed", "planner"])
def test_star_of_another_alias_is_an_error(planner):
    db = _db().view(ExecutorOptions(planner=planner))
    sql = "SELECT x.* FROM a t0 WHERE t0.k = 1"
    with pytest.raises(SQLExecutionError,
                       match="unknown alias 'x' in select list"):
        db.execute(sql)


def test_traced_point_lookup_is_one_span():
    db = _db()
    db.execute(POINT, {"key": 1})
    for result in (db.execute(POINT, {"key": 1}, trace=True),
                   db.view().execute(POINT, {"key": 1}, trace=True)):
        assert format_tree(result.trace) == (
            "query  [mode=planner, rows=3, sql=%s]\n"
            "  IndexScan  [op=IndexScan(a AS t0, k = :key), rows=3]"
            % POINT)
        _same_result(result, db.view(ExecutorOptions(planner=False))
                     .execute(POINT, {"key": 1}))


def test_profiled_point_lookup_samples_its_scan():
    db = Database()
    db.create_table("big", ("id", "k"))
    db.insert_many("big", ({"id": i, "k": 0} for i in range(20000)))
    db.create_index("big", "k")
    sql = "SELECT * FROM big AS t0 WHERE t0.k = :key"
    label = "IndexScan(big AS t0, k = :key)"
    result = db.execute(sql, {"key": 0}, profile=True)
    assert result.profile.spans_seen == {"query", label}
    _same_result(result, db.view(ExecutorOptions(planner=False))
                 .execute(sql, {"key": 0}))
    # Sample counts are statistical: sample query after query (the
    # profiler runs only while one does) until the scan is sampled.
    profiler = Profiler(interval_seconds=0.001)
    deadline = time.monotonic() + 20.0
    while label not in {span for span, _ in profiler.samples} \
            and time.monotonic() < deadline:
        db.execute(sql, {"key": 0}, profile=profiler)
    spans = {span for span, _ in profiler.samples}
    assert label in spans
    assert spans <= {"query", label, NO_SPAN}


# -- a missing parameter is an error, whatever the access path ----------------


MODES = {
    "seed": ExecutorOptions(planner=False),
    "planner": ExecutorOptions(),
    "vectorized": ExecutorOptions(vectorized=True),
    "parallel-2": ExecutorOptions(parallel=2),
}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("indexed", [False, True], ids=["no-index", "index"])
@pytest.mark.parametrize("rows", [[], [(1, 1), (2, None)]],
                         ids=["empty", "rows"])
def test_missing_parameter_raises(mode, indexed, rows):
    db = Database()
    db.create_table("a", ("id", "k"))
    db.insert_many("a", ({"id": i, "k": k} for i, k in rows))
    if indexed:
        db.create_index("a", "k")
    view = db.view(MODES[mode])
    sql = "SELECT a.id FROM a a WHERE a.k = :key"
    with pytest.raises(SQLExecutionError, match="unbound parameter :key"):
        view.execute(sql)
    with pytest.raises(SQLExecutionError, match="unbound parameter :key"):
        view.execute(sql, {"other": 1})
    assert [r.id for r in view.execute(sql, {"key": 1}).rows] == \
        [1] * bool(rows)


@pytest.mark.parametrize("planner", [False, True], ids=["seed", "planner"])
def test_index_probe_reports_missing_parameter(planner):
    """Direct ``Executor`` callers skip the statement check; the index
    probe itself raises instead of reading the parameter as NULL."""
    db = Database()
    db.create_table("a", ("id", "k"))
    db.insert_many("a", [{"id": 1, "k": 1}, {"id": 2, "k": None}])
    db.create_index("a", "k")
    sql = "SELECT a.id FROM a a WHERE a.k = :key"
    if planner:
        assert "IndexScan" in db.explain(sql)
    executor = Executor(db.catalog, ExecutorOptions(planner=planner))
    select = parse(sql)
    with pytest.raises(SQLExecutionError, match="unbound parameter :key"):
        executor.execute(select, {})


def test_parameters_in_subqueries_are_checked():
    db = _db()
    sql = ("SELECT t0.id FROM a t0 WHERE t0.k IN "
           "(SELECT t1.k FROM b t1 WHERE t1.v = :v)")
    with pytest.raises(SQLExecutionError, match="unbound parameter :v"):
        db.execute(sql, {})
    sql = "SELECT q.id FROM (SELECT t.id FROM c t WHERE t.v = :w) q"
    with pytest.raises(SQLExecutionError, match="unbound parameter :w"):
        db.execute(sql, {})
