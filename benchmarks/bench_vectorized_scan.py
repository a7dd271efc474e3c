"""Batch execution vs. the seed pipeline: a large scan and small queries.

Every planned query runs on the batch operators
(``repro.sql.plan.physical``): scalar expressions compile once per plan
into closures over column vectors (``repro.sql.plan.vector``), so the
per-row environment dict and recursive ``_eval`` walk are amortized
across each operator's whole batch.  The baseline on both floors is
the seed single-pass pipeline (``ExecutorOptions(planner=False)``),
the engine's oracle.

Claims:

* **outcome identity** (asserted unconditionally): the planned engine
  returns rows, columns and engine statistics identical to the seed
  pipeline — here and, exhaustively, in ``tests/sql/test_vectorized.py``
  + the cross-mode differential fuzzer
  (``tests/sql/test_differential_fuzz.py``);
* **scan floor** (asserted unconditionally — batch execution is
  single-threaded, so no core-count gate applies): >= 2x on a filtered
  aggregation over a 200k-row scan; the grouped variant is reported
  against the seed pipeline's GROUP BY;
* **small-query floor** (asserted unconditionally): >= 2x on an
  ORM-shaped stream of tiny indexed lookups, where per-query setup
  rather than per-row work dominates.  Each "page" runs ten
  ``SELECT * ... WHERE t0.id = :key`` point lookups and one
  ``... WHERE t0.a = :key`` lookup returning about 70 rows, over a
  500-row table with both columns indexed, through ``Database.execute``
  on one warm handle per side.  It catches batch setup costs that
  would outweigh their savings on the paper's actual workload, such as
  rebuilding the stored records a ``SELECT *`` can pass through.

Run directly::

    PYTHONPATH=src python benchmarks/bench_vectorized_scan.py
    PYTHONPATH=src python benchmarks/bench_vectorized_scan.py --smoke

(``--smoke`` is the CI canary: one timing repeat and fewer pages,
non-zero exit when a floor regresses.  The scan table keeps its full
200k rows even in smoke mode — the floor is the acceptance criterion,
so it is measured on the advertised workload.)
"""

import sys
import time

from repro.bench.harness import floor_entry, write_bench_artifact
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

#: Acceptance floors, both against the seed pipeline.
MIN_VECTORIZED_SPEEDUP = 2.0
MIN_SMALL_QUERY_SPEEDUP = 2.0
N_ROWS = 200_000

#: Scan + filter + aggregate: per-row interpretation dominates, the
#: compiled closures amortize it over the batch.
AGG_SQL = ("SELECT COUNT(*) AS n, SUM(t0.v) AS tot, MIN(t0.v) AS lo, "
           "MAX(t0.v) AS hi FROM ev t0 "
           "WHERE t0.a > 13 AND t0.b < 880 AND t0.v > 4")

#: A grouped variant exercising the batch GROUP BY fold.
GROUP_SQL = ("SELECT t0.g, COUNT(*) AS n, SUM(t0.v) AS tot FROM ev t0 "
             "WHERE t0.a > 13 GROUP BY t0.g")

#: The small-query stream: one page is ten point lookups by key and
#: one association lookup returning ~SMALL_ROWS / SMALL_FANOUT rows.
POINT_SQL = "SELECT * FROM t AS t0 WHERE t0.id = :key"
FANOUT_SQL = "SELECT * FROM t AS t0 WHERE t0.a = :key"
SMALL_ROWS = 500
SMALL_FANOUT = 7


def build_database(n_rows: int) -> Database:
    db = Database()
    db.create_table("ev", ("id", "a", "b", "g", "v"))
    db.insert_many("ev", ({"id": i, "a": i % 97, "b": i % 997,
                           "g": i % 7, "v": i % 1013}
                          for i in range(n_rows)))
    return db


def timed(db, sql, repeats):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = db.execute(sql)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def compare(label, engine, seed, sql, repeats):
    """Time ``sql`` on both sides, assert identity, print the ratio."""
    seed_time, seed_result = timed(seed, sql, repeats)
    engine_time, result = timed(engine, sql, repeats)
    assert list(result.rows) == list(seed_result.rows), label
    assert result.columns == seed_result.columns, label
    assert result.stats == seed_result.stats, label
    speedup = seed_time / engine_time if engine_time else float("inf")
    print("%-28s %8.2fms vs %8.2fms   %5.2fx"
          % (label, engine_time * 1e3, seed_time * 1e3, speedup))
    return speedup


def small_query_database() -> Database:
    db = Database()
    db.create_table("t", ("id", "a", "name"))
    db.insert_many("t", ({"id": i, "a": i % SMALL_FANOUT,
                          "name": "row%d" % i}
                         for i in range(SMALL_ROWS)))
    db.create_index("t", "id")
    db.create_index("t", "a")
    return db


def small_queries(pages: int, repeats: int) -> float:
    """Seconds per page of each side (best of ``repeats``, alternating
    sides) and the speedup of the planned engine over the seed."""
    engine = small_query_database()
    seed = engine.view(ExecutorOptions(planner=False))
    stream = []
    for page in range(pages):
        stream.extend((POINT_SQL, {"key": (page * 10 + i) % SMALL_ROWS})
                      for i in range(10))
        stream.append((FANOUT_SQL, {"key": page % SMALL_FANOUT}))

    def run(db):
        return [db.execute(sql, params).rows for sql, params in stream]

    assert run(engine) == run(seed), "small queries: rows differ"
    best = {}
    for _ in range(repeats):
        for label, db in (("engine", engine), ("seed", seed)):
            start = time.perf_counter()
            run(db)
            elapsed = time.perf_counter() - start
            best[label] = min(best.get(label, elapsed), elapsed)
    speedup = best["seed"] / best["engine"] if best["engine"] else \
        float("inf")
    print("%-28s %8.1fus vs %8.1fus   %5.2fx  per page"
          % ("small queries", best["engine"] / pages * 1e6,
             best["seed"] / pages * 1e6, speedup))
    return speedup


def run(smoke=False):
    repeats = 1 if smoke else 3

    engine = build_database(N_ROWS)
    seed = engine.view(ExecutorOptions(planner=False))
    print(engine.explain(AGG_SQL))
    print()

    speedup = compare("agg scan", engine, seed, AGG_SQL, repeats)
    grouped = compare("grouped agg", engine, seed, GROUP_SQL, repeats)
    small = small_queries(50 if smoke else 200, 2 if smoke else 3)

    print()
    print("scan speedup over the seed pipeline at %d rows: %.2fx "
          "(floor %.1fx)" % (N_ROWS, speedup, MIN_VECTORIZED_SPEEDUP))
    print("small-query speedup over the seed pipeline: %.2fx (floor %.1fx)"
          % (small, MIN_SMALL_QUERY_SPEEDUP))
    failures = []
    if speedup < MIN_VECTORIZED_SPEEDUP:
        failures.append("scan speedup %.2fx < %.1fx"
                        % (speedup, MIN_VECTORIZED_SPEEDUP))
    if small < MIN_SMALL_QUERY_SPEEDUP:
        failures.append("small-query speedup %.2fx < %.1fx"
                        % (small, MIN_SMALL_QUERY_SPEEDUP))
    write_bench_artifact(
        "vectorized_scan", not failures, smoke=smoke,
        floors={"vectorized_scan": floor_entry(speedup,
                                               MIN_VECTORIZED_SPEEDUP),
                "small_query": floor_entry(small,
                                           MIN_SMALL_QUERY_SPEEDUP)},
        extra={"rows": N_ROWS, "repeats": repeats,
               "baseline": "seed pipeline",
               "grouped_speedup": grouped})
    for failure in failures:
        print("FAIL: " + failure)
    if failures:
        return 1
    print("RESULT: PASS")
    return 0


def test_vectorized_scan_floor(benchmark):
    """pytest-benchmark flavor (part of ``make bench``)."""
    code = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1,
                              iterations=1)
    assert code == 0


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv[1:]))
