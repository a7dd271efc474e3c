"""Cost-based join ordering vs. the greedy FROM-order chain.

A skewed four-table corpus where FROM order is adversarial: the query
lists the two large tables first, joined on a 10-value hot key, so the
greedy chain (``ExecutorOptions(cost_based=False)``) materializes the
``|a|·|b| / 10`` explosion before the selective anchor ever filters
it.  The cost-based planner starts from the anchored side — the
point-filtered ``d``, then unique-key joins — and a ``Restore`` node
re-sorts the (small) final result into the pinned FROM order, so both
modes return identical rows.

Floor: **>= 2x wall-clock** for the cost-based plan (``--smoke`` is
the CI canary in ``make bench-smoke``; the measured margin is far
larger).

Run directly::

    PYTHONPATH=src python benchmarks/bench_join_order.py
    PYTHONPATH=src python benchmarks/bench_join_order.py --smoke
"""

import sys
import time

from repro.bench.harness import floor_entry, write_bench_artifact
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

#: Acceptance floor (ISSUE 5).
MIN_JOIN_ORDER_SPEEDUP = 2.0

#: FROM order leads with the hot-key explosion; the anchor comes last.
SQL = ("SELECT a.id, b.id, c.id, d.id FROM a, b, c, d "
       "WHERE a.k = b.k AND b.m = c.m AND c.g = d.g AND d.id = :anchor")
PARAMS = {"anchor": 3}


def build_database(options, n_big, n_mid, n_small):
    db = Database(options)
    db.create_table("a", ("id", "k"))
    db.create_table("b", ("id", "k", "m"))
    db.create_table("c", ("id", "m", "g"))
    db.create_table("d", ("id", "g"))
    db.insert_many("a", ({"id": i, "k": i % 10} for i in range(n_big)))
    db.insert_many("b", ({"id": i, "k": i % 10, "m": i}
                         for i in range(n_big)))
    db.insert_many("c", ({"id": i, "m": i, "g": i % (n_small or 1)}
                         for i in range(n_mid)))
    db.insert_many("d", ({"id": i, "g": i} for i in range(n_small)))
    return db


def timed(db, sql, repeats, params):
    best = None
    rows = None
    for _ in range(repeats):
        start = time.perf_counter()
        rows = list(db.execute(sql, params).rows)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, rows


def run(smoke=False):
    repeats = 1 if smoke else 3
    n_big, n_mid, n_small = (400, 120, 40) if smoke else (1200, 300, 60)

    cost = build_database(ExecutorOptions(), n_big, n_mid, n_small)
    greedy = cost.view(ExecutorOptions(cost_based=False))

    cost_plan = cost.explain(SQL)
    print(cost_plan)
    assert "Restore(a, b, c, d)" in cost_plan, \
        "expected the cost-based planner to reorder this chain"
    assert "Restore" not in greedy.explain(SQL)

    cost_time, cost_rows = timed(cost, SQL, repeats, PARAMS)
    greedy_time, greedy_rows = timed(greedy, SQL, repeats, PARAMS)
    assert cost_rows == greedy_rows, "modes disagree on rows"
    assert cost_rows, "join-order workload returned no rows"

    speedup = greedy_time / cost_time if cost_time > 0 else float("inf")
    print()
    print("%-28s %8.2fms vs %9.2fms   %6.1fx  (floor %.1fx)"
          % ("cost-based vs FROM order", cost_time * 1e3,
             greedy_time * 1e3, speedup, MIN_JOIN_ORDER_SPEEDUP))
    write_bench_artifact(
        "join_order", speedup >= MIN_JOIN_ORDER_SPEEDUP, smoke=smoke,
        floors={"join_order": floor_entry(speedup,
                                          MIN_JOIN_ORDER_SPEEDUP)},
        extra={"sql": SQL, "cost_seconds": cost_time,
               "greedy_seconds": greedy_time,
               "tables": {"big": n_big, "mid": n_mid, "small": n_small},
               "repeats": repeats})
    if speedup < MIN_JOIN_ORDER_SPEEDUP:
        print("FAIL: join-order speedup %.2fx < %.1fx"
              % (speedup, MIN_JOIN_ORDER_SPEEDUP))
        return 1
    print("join-order floor holds (%.1fx)" % speedup)
    return 0


def test_join_order_floor(benchmark):
    """pytest-benchmark flavor (part of ``make bench``)."""
    code = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1,
                              iterations=1)
    assert code == 0


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv[1:]))
