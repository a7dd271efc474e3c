"""Partition-parallel scans + partial aggregation vs. the serial plan.

``ExecutorOptions(parallel=K)`` splits the leftmost scan into K range
partitions and runs the plan per partition (``repro.sql.plan``) on the
process-wide worker pool: worker processes that prepare and scan only
their own row range.  For CPU-bound aggregation the per-partition
result is a handful of scalars, so the pool buys real multi-core
speedup.  Every timed parallel query is one-shot: the pool is shut
down before it, so the query forks its workers, which start with the
table already in their caches (there is no warm-up query and no warm
repeat).

Three claims:

* **outcome identity** (asserted unconditionally): every parallel
  run returns rows, columns and engine statistics identical to the
  serial plan — here and, exhaustively, in
  ``tests/sql/test_parallel_equivalence.py``;
* **wall-clock speedup** (asserted where the hardware can express it):
  >= 1.8x at 4 partitions on a filtered aggregation over a wide scan.
  The floor needs ``AUTO_MIN_CORES`` (4) usable cores, the same bound
  below which ``parallel="auto"`` stays serial; on smaller machines
  the measured ratio is reported and the assertion skipped, because
  four CPU-bound workers cannot beat one on fewer cores;
* **plan shape**: EXPLAIN shows the partial aggregation
  (``PartialAggregate``) with its partition count.

Run directly::

    PYTHONPATH=src python benchmarks/bench_parallel_scan.py
    PYTHONPATH=src python benchmarks/bench_parallel_scan.py --smoke

(``--smoke`` is the CI canary: one timing repeat, a smaller table,
non-zero exit when the floor regresses on qualifying hardware.)
"""

import sys
import time

from repro.bench.harness import floor_entry, write_bench_artifact
from repro.service.pool import reset_pool
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions
from repro.sql.plan.optimizer import AUTO_MIN_CORES
from repro.sql.plan.parallel import usable_cores

#: Acceptance floor, matching bench_qbs_parallel.py.
MIN_PARALLEL_SPEEDUP = 1.8
PARTITIONS = 4

#: A filtered aggregation: per-row predicate work dominates, results
#: are four scalars — the partial-aggregation sweet spot.
AGG_SQL = ("SELECT COUNT(*) AS n, SUM(t0.v) AS tot, MIN(t0.v) AS lo, "
           "MAX(t0.v) AS hi FROM ev t0 "
           "WHERE t0.a > 13 AND t0.b < 880 AND t0.v > 4")

#: A grouped variant exercising partial GROUP BY merge.
GROUP_SQL = ("SELECT t0.g, COUNT(*) AS n, SUM(t0.v) AS tot FROM ev t0 "
             "WHERE t0.a > 13 GROUP BY t0.g")


def build_database(n_rows: int) -> Database:
    db = Database()
    db.create_table("ev", ("id", "a", "b", "g", "v"))
    db.insert_many("ev", ({"id": i, "a": i % 97, "b": i % 997,
                           "g": i % 7, "v": i % 1013}
                          for i in range(n_rows)))
    return db


def timed(db, sql, repeats, cold=False):
    """Best of ``repeats``; ``cold`` shuts the pool down before each
    one, so every timed query forks its workers (a one-shot query)."""
    best = None
    result = None
    for _ in range(repeats):
        if cold:
            reset_pool()
        start = time.perf_counter()
        result = db.execute(sql)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run(smoke=False):
    repeats = 1 if smoke else 3
    # Big enough that per-row predicate work dominates the fork and
    # dispatch overhead even in smoke mode.
    n_rows = 100_000 if smoke else 200_000

    serial = build_database(n_rows)
    pool = serial.view(ExecutorOptions(parallel=PARTITIONS))

    plan = pool.explain(AGG_SQL)
    print(plan)
    assert "PartialAggregate(whole input, partitions=%d)" % PARTITIONS \
        in plan, "expected a partial-aggregation plan"
    print()

    serial_time, serial_result = timed(serial, AGG_SQL, repeats)
    par_time, par_result = timed(pool, AGG_SQL, repeats, cold=True)
    assert list(par_result.rows) == list(serial_result.rows)
    assert par_result.columns == serial_result.columns
    assert par_result.stats == serial_result.stats
    speedup = serial_time / par_time if par_time else float("inf")
    print("%-28s %8.2fms vs %8.2fms   %5.2fx"
          % ("agg scan, pool x%d" % PARTITIONS, par_time * 1e3,
             serial_time * 1e3, speedup))

    # Grouped partial aggregation: identity always, timing reported.
    g_serial_time, g_serial = timed(serial, GROUP_SQL, repeats)
    g_par_time, g_par = timed(pool, GROUP_SQL, repeats, cold=True)
    assert list(g_par.rows) == list(g_serial.rows), "grouped mismatch"
    assert g_par.stats == g_serial.stats, "grouped stats mismatch"
    print("%-28s %8.2fms vs %8.2fms   %5.2fx"
          % ("grouped agg, pool x%d" % PARTITIONS,
             g_par_time * 1e3, g_serial_time * 1e3,
             g_serial_time / g_par_time if g_par_time else float("inf")))

    cores = usable_cores()
    floor_applies = cores >= AUTO_MIN_CORES
    print()
    print("pool speedup at %d partitions: %.2fx (floor %.1fx, "
          "%d usable core%s%s)"
          % (PARTITIONS, speedup, MIN_PARALLEL_SPEEDUP,
             cores, "s" if cores != 1 else "",
             "" if floor_applies else
             " — floor skipped, needs >= %d" % AUTO_MIN_CORES))
    ok = not floor_applies or speedup >= MIN_PARALLEL_SPEEDUP
    write_bench_artifact(
        "parallel_scan", ok, smoke=smoke,
        floors={"parallel_scan": floor_entry(speedup,
                                             MIN_PARALLEL_SPEEDUP,
                                             asserted=floor_applies)},
        extra={"partitions": PARTITIONS, "usable_cores": cores,
               "rows": n_rows, "repeats": repeats})
    reset_pool()
    if floor_applies and speedup < MIN_PARALLEL_SPEEDUP:
        print("FAIL: parallel-scan speedup %.2fx < %.1fx"
              % (speedup, MIN_PARALLEL_SPEEDUP))
        return 1
    print("RESULT: PASS")
    return 0


def test_parallel_scan_floor(benchmark):
    """pytest-benchmark flavor (part of ``make bench``)."""
    code = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1,
                              iterations=1)
    assert code == 0


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv[1:]))
