"""Partition-parallel execution is invisible: K-way plans are
row/column/stats-identical to the serial planner and to the seed
single-pass pipeline (GROUP BY / HAVING included) for every K.

Every K > 1 runs its partitions on the process-wide worker pool.
Three layers:

* the planner-equivalence query battery, re-run under
  ``ExecutorOptions(parallel=K)`` for K in {1, 2, 4} against both the
  serial planner and the seed pipeline;
* targeted shapes: grouped partial aggregation, combinable
  whole-input aggregates — including AVG, whose ``(total, count)``
  partials combine to a float-bitwise-identical mean — the AND-HAVING
  fallback to Gather + serial aggregation, empty tables, and K larger
  than the row count;
* the battery again on a pool forked for each query and on the serial
  rung;
* every corpus-inferred SQL statement, executed at K=4 and K=2;
* the pool's table cache: a warm pool re-ships zero rows for an
  unchanged catalog, and a catalog mutation invalidates the digest;
* queries on several threads sharing the pool, each getting its own
  rows.
"""

import re
import struct

import pytest

from repro.corpus.schema import create_wilos_database, populate_wilos
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

from test_planner_equivalence import BATTERY

PARTITION_COUNTS = (1, 2, 4)


def _stats_tuple(stats):
    return (stats.rows_scanned, stats.index_probes, stats.hash_joins,
            stats.nested_loop_joins, stats.index_scans, stats.full_scans)


def _assert_parallel_identical(db, sql, params=None,
                               partitions=PARTITION_COUNTS,
                               degraded=False):
    references = [
        ("serial planner", db.execute(sql, params)),
        ("seed pipeline",
         db.view(ExecutorOptions(planner=False)).execute(sql, params))]
    for k in partitions:
        result = db.view(ExecutorOptions(parallel=k)).execute(sql, params)
        for label, reference in references:
            assert list(result.rows) == list(reference.rows), \
                (sql, k, label)
            assert result.columns == reference.columns, (sql, k, label)
            assert _stats_tuple(result.stats) == \
                _stats_tuple(reference.stats), (sql, k, label)
            assert bool(result.stats.degradations) == \
                (degraded and k > 1), (sql, k)


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
def test_battery_parallel_equivalence(case, wilos_db):
    sql, params = BATTERY[case]
    _assert_parallel_identical(wilos_db, sql, params)


@pytest.mark.parametrize("case", range(len(BATTERY)))
def test_battery_pool_equivalence(case, wilos_db, monkeypatch):
    """The battery at K=2 on the pool's two other paths: workers forked
    for the query (holding its tables from the fork, nothing shipped),
    and the serial rung (no pool: the partitions rerun in the driver).
    Same rows, columns and stats as the serial planner."""
    from repro.service import pool as pool_mod
    from repro.service.faults import SubstrateUnavailable

    def unavailable():
        raise SubstrateUnavailable("no pool here")

    sql, params = BATTERY[case]
    pool_mod.reset_pool()
    _assert_parallel_identical(wilos_db, sql, params, partitions=(2,))
    monkeypatch.setattr(pool_mod, "get_pool", unavailable)
    _assert_parallel_identical(wilos_db, sql, params, partitions=(2,),
                               degraded=True)


# -- targeted shapes -----------------------------------------------------------


@pytest.fixture(scope="module")
def small_db():
    db = Database()
    db.create_table("r", ("id", "a"))
    db.create_table("s", ("id", "b"))
    db.create_index("s", "b")
    db.insert_many("r", ({"id": i, "a": i % 5} for i in range(23)))
    db.insert_many("s", ({"id": i, "b": i % 5} for i in range(11)))
    db.create_table("empty", ("id", "v"))
    return db


GROUPED = ("SELECT t0.a, COUNT(*) AS n, SUM(t0.id) AS tot, "
           "MIN(t0.id) AS lo, MAX(t0.id) AS hi "
           "FROM r t0 GROUP BY t0.a HAVING COUNT(*) > 2 ORDER BY n DESC")
WHOLE = ("SELECT COUNT(*) AS n, SUM(t0.id) AS tot, MIN(t0.id) AS lo, "
         "MAX(t0.id) AS hi FROM r t0, s t1 "
         "WHERE t0.a = t1.b AND t0.id > 2")


def test_partial_aggregation(small_db):
    _assert_parallel_identical(small_db, GROUPED)
    _assert_parallel_identical(small_db, WHOLE)


def test_partial_aggregation_lowering(small_db):
    view = small_db.view(ExecutorOptions(parallel=3))
    grouped_plan = view.explain(GROUPED)
    assert "PartialGroupBy(t0.a, partitions=3)" in grouped_plan
    whole_plan = view.explain(WHOLE)
    assert "PartialAggregate(whole input, partitions=3)" in whole_plan
    assert "Gather" not in whole_plan


@pytest.mark.parametrize("sql", [
    # AND short-circuits in HAVING; serial fallback.
    "SELECT t0.a, COUNT(*) AS n FROM r t0 GROUP BY t0.a "
    "HAVING COUNT(*) > 1 AND COUNT(*) < 5",
])
def test_non_combinable_aggregates_fall_back(small_db, sql):
    view = small_db.view(ExecutorOptions(parallel=3))
    plan = view.explain(sql)
    assert "Gather(partitions=3)" in plan
    assert "Partial" not in plan.replace("Partitioned", "")
    _assert_parallel_identical(small_db, sql)


AVG_GROUPED = ("SELECT t0.a, AVG(t0.id) AS m, COUNT(*) AS n FROM r t0 "
               "GROUP BY t0.a ORDER BY t0.a")
AVG_WHOLE = "SELECT AVG(t0.id) AS m FROM r t0 WHERE t0.id > 2"


def test_avg_lowers_to_partials(small_db):
    """AVG no longer forces the Gather fallback: its partial state is
    an exact ``(total, count)`` pair, so it combines like SUM/COUNT."""
    view = small_db.view(ExecutorOptions(parallel=3))
    assert "PartialAggregate" in view.explain(AVG_WHOLE)
    assert "PartialGroupBy" in view.explain(AVG_GROUPED)


def test_avg_combines_bitwise_identical(small_db):
    """The combined mean is float-*bitwise* identical to the serial
    fold, not merely approximately equal."""
    for sql in (AVG_GROUPED, AVG_WHOLE):
        serial = list(small_db.execute(sql).rows)
        for k in (2, 4):
            view = small_db.view(ExecutorOptions(parallel=k))
            got = list(view.execute(sql).rows)
            assert len(got) == len(serial), (sql, k)
            for mine, reference in zip(got, serial):
                for value, expected in zip(mine, reference):
                    if isinstance(expected, float):
                        assert struct.pack("<d", value) == \
                            struct.pack("<d", expected), (sql, k)
                    else:
                        assert value == expected, (sql, k)


def test_nested_subquery_inside_partition(small_db):
    """Per-row IN subqueries evaluated inside partition workers must
    execute with a *serial* nested plan: re-planning them parallel
    would dispatch to the pool per probed row — and fork from inside
    a daemonic pool worker, which multiprocessing forbids."""
    in_agg = ("SELECT COUNT(*) AS n FROM r t0 WHERE t0.a IN "
              "(SELECT t1.b FROM s t1 WHERE t1.id = 1)")
    _assert_parallel_identical(small_db, in_agg)
    in_plain = ("SELECT t0.id FROM r t0 WHERE t0.a IN "
                "(SELECT t1.b FROM s t1 WHERE t1.id = 1)")
    _assert_parallel_identical(small_db, in_plain)


ORDERED = ("SELECT t0.id, t0.a FROM r t0, s t1 WHERE t0.a = t1.b "
           "ORDER BY t0.a DESC, t0.id")


def test_parallel_order_by_merges(small_db):
    """ORDER BY above the partition boundary runs as per-partition
    sorts + a k-way heap merge (GatherMerge), pinned identical to the
    serial sort — including tie order (t0.a has heavy duplicates)."""
    view = small_db.view(ExecutorOptions(parallel=3))
    plan = view.explain(ORDERED)
    assert "GatherMerge(partitions=3, t0.a DESC, t0.id)" in plan
    assert "Gather(" not in plan
    _assert_parallel_identical(small_db, ORDERED)


def test_parallel_order_by_top_k(small_db):
    sql = ORDERED + " LIMIT 4"
    view = small_db.view(ExecutorOptions(parallel=3))
    assert "top_k=4" in view.explain(sql)
    _assert_parallel_identical(small_db, sql, partitions=(2, 3, 64))


def test_more_partitions_than_rows(small_db):
    _assert_parallel_identical(
        small_db, "SELECT t0.id FROM r t0 WHERE t0.a = 1",
        partitions=(4, 64))


def test_empty_table(small_db):
    _assert_parallel_identical(small_db, "SELECT * FROM empty")
    _assert_parallel_identical(
        small_db,
        "SELECT COUNT(*), SUM(t0.v) FROM empty t0", partitions=(2, 4))


def test_parallel_requires_planner():
    with pytest.raises(ValueError):
        Database(ExecutorOptions(planner=False, parallel=2))
    with pytest.raises(ValueError):
        Database(ExecutorOptions(parallel=0))


def test_partition_counts_in_analyze(small_db):
    view = small_db.view(ExecutorOptions(parallel=2))
    text = view.explain(
        "SELECT t0.id, t1.id FROM r t0, s t1 WHERE t0.a = t1.b",
        analyze=True)
    assert "Gather(partitions=2)" in text
    assert "parts=" in text
    # Per-partition counts sum to the operator's rows_out.
    for line in text.splitlines():
        match = re.search(r"\[rows=(\d+), parts=([\d|]+)\]", line)
        if match:
            total, parts = match.groups()
            assert sum(int(p) for p in parts.split("|")) == int(total)


# -- full-corpus equivalence ---------------------------------------------------


def test_full_corpus_sql_parallel(corpus_sql, app_dbs):
    assert len(corpus_sql) >= 40
    for fragment_id, app, sql in corpus_sql:
        db = app_dbs[app]
        params = {name: 1
                  for name in set(re.findall(r":(\w+)", sql))}
        _assert_parallel_identical(db, sql, params, partitions=(4,))


def test_full_corpus_sql_pool(corpus_sql, app_dbs):
    """Every corpus statement again at K=2; the warm pool serves
    repeated catalogs from its table cache."""
    for fragment_id, app, sql in corpus_sql:
        db = app_dbs[app]
        params = {name: 1
                  for name in set(re.findall(r":(\w+)", sql))}
        _assert_parallel_identical(db, sql, params, partitions=(2,))


# -- pool table cache ----------------------------------------------------------


def test_pool_reships_nothing_when_catalog_unchanged(small_db):
    """A warm pool sends only plan fragments: repeated queries over an
    unchanged catalog ship zero table rows (the cache-hit metric grows,
    the rows-shipped metric does not)."""
    from repro.service import pool as pool_mod
    view = small_db.view(ExecutorOptions(parallel=2))
    sql = "SELECT t0.id, t1.id FROM r t0, s t1 WHERE t0.a = t1.b"
    view.execute(sql)  # cold: ships whatever isn't cached yet
    shipped_cold = pool_mod._ROWS_SHIPPED.total()
    hits_cold = pool_mod._CACHE_HITS.total()
    for _ in range(3):
        view.execute(sql)
    assert pool_mod._ROWS_SHIPPED.total() == shipped_cold
    assert pool_mod._CACHE_HITS.total() > hits_cold


def test_pool_reships_after_catalog_mutation(small_db):
    """An insert bumps the table's content digest, so the next pool
    query re-ships that table (and only then caches the new version)."""
    from repro.service import pool as pool_mod
    db = Database()
    db.create_table("m", ("id", "v"))
    db.insert_many("m", ({"id": i, "v": i % 3} for i in range(10)))
    view = db.view(ExecutorOptions(parallel=2))
    sql = "SELECT t0.v, COUNT(*) AS n FROM m t0 GROUP BY t0.v"
    view.execute(sql)
    warm = pool_mod._ROWS_SHIPPED.total()
    view.execute(sql)
    assert pool_mod._ROWS_SHIPPED.total() == warm  # cached
    db.insert_many("m", ({"id": 100 + i, "v": i} for i in range(2)))
    result = view.execute(sql)
    assert pool_mod._ROWS_SHIPPED.total() > warm  # re-shipped
    assert list(result.rows) == list(db.execute(sql).rows)


def test_pool_ships_only_the_tables_a_query_reads():
    """A catalog larger than a worker's cache (64 tables) still runs on
    the pool: a job names only the tables its plan reads, so a query
    over one 50-row table ships at most that table to each worker —
    not the whole 3,500-row catalog — and the LRU never evicts it
    before the job runs."""
    from repro.service import pool as pool_mod
    db = Database()
    for i in range(70):
        db.create_table("t%d" % i, ("id", "v"))
        db.insert_many("t%d" % i, ({"id": j, "v": j % 5}
                                   for j in range(50)))
    view = db.view(ExecutorOptions(parallel=2))
    sql = "SELECT COUNT(*) AS n FROM t0 x WHERE x.v > 2"
    shipped = pool_mod._ROWS_SHIPPED.total()
    result = view.execute(sql)
    assert pool_mod._ROWS_SHIPPED.total() - shipped \
        <= 50 * pool_mod.get_pool().size
    assert list(result.rows) == list(db.execute(sql).rows)
    assert result.stats.degradations == 0
    assert "degraded=" not in view.explain(sql, analyze=True)


def test_pool_job_prepares_only_its_own_partition(monkeypatch):
    """A pool job re-prepares the chain in its worker, but reads only
    its own row range of the scanned table, not every partition's."""
    import pickle

    from repro.sql.plan import parallel

    db = Database()
    db.create_table("ev", ("id", "v"))
    db.insert_many("ev", ({"id": i, "v": i % 7} for i in range(100)))
    captured = []

    def capture(tasks, deadline, plan, faults):
        captured.extend(task.pool_job for task in tasks)
        return [task() for task in tasks]

    monkeypatch.setattr(parallel, "_run_pool", capture)
    view = db.view(ExecutorOptions(parallel=4))
    sql = "SELECT COUNT(*) AS n, SUM(t0.v) AS s FROM ev t0 WHERE t0.v > 2"
    assert list(view.execute(sql).rows) == list(db.execute(sql).rows)
    tables = {digest: db.catalog.tables[name]
              for name, digest in captured[0].digest_map.items()}
    for job in captured:
        shipped = pickle.loads(pickle.dumps(job))
        shipped.run_in_worker(tables)
        scan = shipped.root.child         # the PartitionedScan
        assert list(scan._slices) == [job.part]
        assert len(scan._slices[job.part]) == 25


# -- threads sharing the pool --------------------------------------------------


def test_threads_sharing_the_pool_get_their_own_rows(small_db):
    """Six threads run K=2 queries through one Database on default
    options, each its own statement, so a reply read by the wrong
    thread shows up as wrong rows.  Daemon threads and a join bound
    make a hang fail the test instead of blocking the suite."""
    import sys
    import threading
    import time

    statements = ["SELECT t0.id, t1.id FROM r t0, s t1 "
                  "WHERE t0.a = t1.b AND t0.a = %d" % n for n in range(5)]
    statements.append("SELECT t0.a, COUNT(*) AS n FROM r t0 GROUP BY t0.a")
    expected = [list(small_db.execute(sql).rows) for sql in statements]
    view = small_db.view(ExecutorOptions(parallel=2))
    failures = []

    def worker(n):
        try:
            for _ in range(10):
                result = view.execute(statements[n])
                if list(result.rows) != expected[n] \
                        or result.stats.degradations:
                    failures.append((n, list(result.rows)))
        except Exception as exc:     # noqa: BLE001 - reported below
            failures.append((n, exc))

    threads = [threading.Thread(target=worker, args=(n,), daemon=True)
               for n in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "hung"
    assert failures == []
