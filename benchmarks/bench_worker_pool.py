"""Warm worker pool vs. a cold pool per query.

The process-wide pool that runs every ``parallel=K > 1`` query forks
its workers once, caches shipped tables by content digest, and ships
only plan fragments afterwards.  The baseline
here is the same substrate paying its start-up on every query:
``reset_pool()`` before each query forks fresh workers (holding the
query's tables, as any freshly forked worker does) and reaps them
after.  For a stream of repeated mid-size parallel queries the warm
pool's per-query cost collapses to dispatch + execution.

Three claims:

* **outcome identity** (asserted unconditionally): the pool stream
  returns rows, columns and engine statistics identical to serial,
  warm and cold — here and, exhaustively, in
  ``tests/sql/test_parallel_equivalence.py``;
* **throughput** (asserted unconditionally): the warm pool sustains
  >= 2x the cold pool's throughput on the repeated-query stream.  The
  floor is overhead-based — it compares a forked-once pool with a
  pool forked per query, driving identical partition work — so unlike
  the CPU-scaling floors it holds even on a single core and is
  asserted on any hardware;
* **zero re-ship** (asserted unconditionally): the warm stream ships
  no table rows — repeated queries against an unchanged catalog are
  served entirely from the workers' digest-keyed caches.

Run directly::

    PYTHONPATH=src python benchmarks/bench_worker_pool.py
    PYTHONPATH=src python benchmarks/bench_worker_pool.py --smoke

(``--smoke`` is the CI canary: fewer rounds and a shorter stream,
non-zero exit when a floor regresses.)
"""

import sys
import time

from repro.bench.harness import floor_entry, write_bench_artifact
from repro.service import pool as pool_mod
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

#: Acceptance floor: warm-pool throughput over a pool forked per query
#: on the repeated-query stream.
MIN_POOL_SPEEDUP = 2.0
PARTITIONS = 4
N_ROWS = 1_500

#: The repeated query: partial GROUP BY, per-partition results are a
#: handful of groups, so transport cost is negligible for both
#: configurations and the comparison isolates start-up overhead.
STREAM_SQL = ("SELECT t0.g, COUNT(*) AS n, SUM(t0.v) AS tot FROM ev t0 "
              "WHERE t0.a > 13 GROUP BY t0.g")


def build_database() -> Database:
    db = Database()
    db.create_table("ev", ("id", "a", "g", "v"))
    db.insert_many("ev", ({"id": i, "a": i % 97, "g": i % 7,
                           "v": i % 1013} for i in range(N_ROWS)))
    return db


def stream_seconds(view, queries: int, rounds: int,
                   cold: bool = False) -> float:
    """Best per-round wall time for ``queries`` back-to-back queries;
    ``cold`` shuts the pool down before each one."""
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(queries):
            if cold:
                pool_mod.reset_pool()
            view.execute(STREAM_SQL)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def run(smoke=False):
    queries = 10 if smoke else 15
    rounds = 2 if smoke else 3

    db = build_database()
    serial_result = db.execute(STREAM_SQL)
    pool_view = db.view(ExecutorOptions(parallel=PARTITIONS))

    plan = pool_view.explain(STREAM_SQL)
    print(plan)
    assert "PartialGroupBy(t0.g, partitions=%d)" % PARTITIONS in plan, \
        "expected a partial-group-by plan"
    print()

    pool_mod.reset_pool()
    cold_result = pool_view.execute(STREAM_SQL)
    # The warm-up query above forked the workers; the rest stay warm.
    warm_result = pool_view.execute(STREAM_SQL)
    for label, result in (("cold", cold_result), ("warm", warm_result)):
        assert list(result.rows) == list(serial_result.rows), label
        assert result.columns == serial_result.columns, label
        assert result.stats == serial_result.stats, label

    shipped_before = pool_mod._ROWS_SHIPPED.total()
    pool_time = stream_seconds(pool_view, queries, rounds)
    rows_reshipped = pool_mod._ROWS_SHIPPED.total() - shipped_before
    cold_time = stream_seconds(pool_view, queries, rounds, cold=True)
    speedup = cold_time / pool_time if pool_time else float("inf")

    print("%-34s %8.2fms  (%5.2fms/query)"
          % ("warm pool x%d, %d queries" % (PARTITIONS, queries),
             pool_time * 1e3, pool_time / queries * 1e3))
    print("%-34s %8.2fms  (%5.2fms/query)"
          % ("cold pool x%d, %d queries" % (PARTITIONS, queries),
             cold_time * 1e3, cold_time / queries * 1e3))
    print()
    print("warm pool throughput vs a pool forked per query: %.2fx "
          "(floor %.1fx)" % (speedup, MIN_POOL_SPEEDUP))
    print("table rows re-shipped during warm stream: %d" % rows_reshipped)

    ok = speedup >= MIN_POOL_SPEEDUP and rows_reshipped == 0
    write_bench_artifact(
        "worker_pool", ok, smoke=smoke,
        floors={"pool_throughput": floor_entry(speedup, MIN_POOL_SPEEDUP,
                                               asserted=True)},
        extra={"partitions": PARTITIONS, "rows": N_ROWS,
               "queries_per_round": queries, "rounds": rounds,
               "pool_seconds": pool_time,
               "cold_pool_seconds": cold_time,
               "rows_reshipped": rows_reshipped,
               "cache_hits": pool_mod._CACHE_HITS.total(),
               "cache_misses": pool_mod._CACHE_MISSES.total()})
    pool_mod.reset_pool()
    if rows_reshipped:
        print("FAIL: warm pool re-shipped %d table rows" % rows_reshipped)
        return 1
    if speedup < MIN_POOL_SPEEDUP:
        print("FAIL: pool throughput %.2fx < %.1fx"
              % (speedup, MIN_POOL_SPEEDUP))
        return 1
    print("RESULT: PASS")
    return 0


def test_worker_pool_floor(benchmark):
    """pytest-benchmark flavor (part of ``make bench``)."""
    code = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1,
                              iterations=1)
    assert code == 0


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv[1:]))
