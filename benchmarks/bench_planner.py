"""Query-planner speed: hash-join chains and index scans vs. baselines.

The planner (`repro.sql.plan`) makes the engine's access-path and join
decisions explicit and rule-driven.  This benchmark measures the two
rules' asymptotic payoffs on the three-table corpus workload and
asserts regression floors:

* **hash-join chain vs. nested loops** — the `adv_chain` corpus
  fragment's inferred SQL (``r ⋈ s ⋈ u``) under the default optimizer
  (two build/probe hash joins) against ``hash_joins=False`` (cross
  products + residual filters).  Floor: >= 3x wall-clock.
* **index scan vs. full scan** — a selective indexed equality probe
  under ``index_scans=False``.  Floor: >= 3x wall-clock.
* **statement cache vs. planning every call** — a parameterized point
  lookup (``SELECT * ... WHERE t0.k = :key``, keys cycling over the
  table) through ``Database.execute`` on one warm handle, which reuses
  the statement's plan, against ``executor.execute`` on the same
  pre-parsed statement, which plans on every call.  Both sides run in
  one process, so the ratio compares per-query overhead with
  per-query overhead.  Floor: >= 2x wall-clock, on any hardware.
* **calls per statement-cache hit** — the Python function calls
  (``sys.setprofile`` ``call`` events) one warm hit of the same lookup
  makes, eight rows returned.  The hit path made 42 before it was
  trimmed to what a run needs, on Python 3.9 and 3.11 alike.  The
  lookup's plan must be the bare index scan (its EXPLAIN root is
  ``IndexScan``).  Floor: at most 12, recorded as the reduction
  ``42 / calls >= 3.5`` beside the count.  The count is exact, so the
  floor holds on any hardware.

Both comparisons assert row-identical results, and the planned engine
is additionally checked row-identical to the seed single-pass pipeline
(``ExecutorOptions(planner=False)``) on the same workload.

Run directly::

    PYTHONPATH=src python benchmarks/bench_planner.py
    PYTHONPATH=src python benchmarks/bench_planner.py --smoke

(``--smoke`` is the CI canary: one timing repeat, smaller tables,
non-zero exit when a floor regresses.  Each timed section starts with
a full garbage collection, so a collection of an earlier section's
garbage never lands in a single timed run.)
"""

import gc
import sys
import time

from repro.bench.harness import floor_entry, write_bench_artifact
from repro.corpus.registry import fragment_by_id, run_fragment_through_qbs
from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions
from repro.sql.parser import parse
from repro.corpus.advanced import ADVANCED_TABLES

#: Acceptance floors.
MIN_HASH_CHAIN_SPEEDUP = 3.0
MIN_INDEX_SCAN_SPEEDUP = 3.0
MIN_STATEMENT_CACHE_SPEEDUP = 2.0
#: Python calls per warm statement-cache hit of LOOKUP_SQL before the
#: hit path was trimmed; the floor asks for at most 12 of them.
BASELINE_HIT_CALLS = 42
MAX_HIT_CALLS = 12
MIN_HIT_CALL_REDUCTION = BASELINE_HIT_CALLS / MAX_HIT_CALLS

#: The statement-cache workload: the ORM's association lookup shape.
LOOKUP_SQL = "SELECT * FROM pt AS t0 WHERE t0.k = :key"


def build_database(options, n_r, n_s, n_u):
    db = Database(options)
    for table, columns in ADVANCED_TABLES.items():
        db.create_table(table, columns)
    db.create_index("r", "a")
    db.create_index("s", "b")
    db.create_index("u", "c")
    db.insert_many("r", ({"id": i, "a": i % 97} for i in range(n_r)))
    db.insert_many("s", ({"id": i, "b": i % 97} for i in range(n_s)))
    db.insert_many("u", ({"id": i, "c": i % (n_s or 1)}
                         for i in range(n_u)))
    # A dedicated point-lookup table: large enough that the full-scan
    # baseline is dominated by scanning, not by per-query overhead.
    db.create_table("pt", ("id", "k"))
    db.create_index("pt", "k")
    db.insert_many("pt", ({"id": i, "k": i % 500} for i in range(4000)))
    return db


def chain_sql():
    """The three-table join SQL QBS infers for ``adv_chain``."""
    result = run_fragment_through_qbs(fragment_by_id("adv_chain"))
    assert result.translated, result.reason
    return result.sql.sql


def timed(db, sql, repeats, params=None):
    gc.collect()
    best = None
    rows = None
    for _ in range(repeats):
        start = time.perf_counter()
        rows = list(db.execute(sql, params).rows)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, rows


def compare(label, sql, fast_db, slow_db, repeats, floor, params=None,
            slow_repeats=1):
    fast_time, fast_rows = timed(fast_db, sql, repeats, params)
    slow_time, slow_rows = timed(slow_db, sql, slow_repeats, params)
    assert fast_rows == slow_rows, "%s: modes disagree on rows" % label
    speedup = slow_time / fast_time if fast_time > 0 else float("inf")
    print("%-28s %8.2fms vs %9.2fms   %6.1fx  (floor %.1fx)"
          % (label, fast_time * 1e3, slow_time * 1e3, speedup, floor))
    return speedup, fast_rows


def statement_cache(db, lookups, repeats):
    """Per-lookup seconds of the cached and the re-planning side (best
    of ``repeats``, alternating sides) and the speedup."""
    select = parse(LOOKUP_SQL)
    bindings = [{"key": i % 500} for i in range(lookups)]
    db.execute(LOOKUP_SQL, bindings[0])          # parse and plan once
    cached_rows = [db.execute(LOOKUP_SQL, p).rows for p in bindings]
    planned_rows = [db.executor.execute(select, p).rows for p in bindings]
    assert cached_rows == planned_rows, "statement cache: rows differ"
    assert all(cached_rows), "statement cache: lookups returned no rows"
    gc.collect()
    cached = planned = None
    for _ in range(repeats):
        start = time.perf_counter()
        for params in bindings:
            db.execute(LOOKUP_SQL, params)
        elapsed = time.perf_counter() - start
        cached = elapsed if cached is None else min(cached, elapsed)
        start = time.perf_counter()
        for params in bindings:
            db.executor.execute(select, params)
        elapsed = time.perf_counter() - start
        planned = elapsed if planned is None else min(planned, elapsed)
    speedup = planned / cached if cached > 0 else float("inf")
    print("%-28s %8.1fus vs %9.1fus   %6.1fx  (floor %.1fx)"
          % ("statement cache vs re-plan", cached / lookups * 1e6,
             planned / lookups * 1e6, speedup,
             MIN_STATEMENT_CACHE_SPEEDUP))
    return speedup


def hit_calls(db):
    """The Python function calls one warm hit of LOOKUP_SQL makes."""
    root = db.explain(LOOKUP_SQL).split("\n")[0]
    assert root.startswith("IndexScan("), \
        "hit calls: expected a bare index scan, got %s" % root
    params = {"key": 7}
    db.execute(LOOKUP_SQL, params)               # cached and current
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = db.execute(LOOKUP_SQL, params)
    finally:
        sys.setprofile(None)
    assert len(result.rows) == 8, "hit calls: expected eight rows"
    print("%-28s %8d calls (at most %d; %d before)"
          % ("calls per cache hit", calls, MAX_HIT_CALLS,
             BASELINE_HIT_CALLS))
    return calls


def run(smoke=False):
    repeats = 1 if smoke else 3
    n_r, n_s, n_u = (60, 40, 30) if smoke else (120, 90, 60)

    planned = build_database(ExecutorOptions(), n_r, n_s, n_u)
    no_hash = planned.view(ExecutorOptions(hash_joins=False,
                                           index_scans=False))
    no_index = planned.view(ExecutorOptions(index_scans=False))
    legacy = planned.view(ExecutorOptions(planner=False))

    sql = chain_sql()
    print("three-table corpus SQL: %s" % sql)
    print(planned.explain(sql))
    explain = planned.explain(sql)
    assert explain.count("HashJoin") == 2, "expected a hash-join chain"

    print()
    chain_speedup, chain_rows = compare(
        "hash-join chain vs nested", sql, planned, no_hash, repeats,
        MIN_HASH_CHAIN_SPEEDUP)
    assert chain_rows, "chain workload returned no rows"

    # The seed pipeline also hash-joins; planner must not regress it.
    legacy_time, legacy_rows = timed(legacy, sql, repeats)
    assert legacy_rows == chain_rows, "planner disagrees with seed"

    point_sql = "SELECT t0.id FROM pt AS t0 WHERE t0.k = 13"
    point_repeats = repeats * (50 if smoke else 200)
    index_speedup, _ = compare(
        "index scan vs full scan", point_sql, planned, no_index,
        point_repeats, MIN_INDEX_SCAN_SPEEDUP,
        slow_repeats=point_repeats)

    cache_speedup = statement_cache(planned, 500 if smoke else 2000,
                                    repeats=3)
    calls = hit_calls(planned)

    failures = []
    if chain_speedup < MIN_HASH_CHAIN_SPEEDUP:
        failures.append("hash-join chain speedup %.2fx < %.1fx"
                        % (chain_speedup, MIN_HASH_CHAIN_SPEEDUP))
    if index_speedup < MIN_INDEX_SCAN_SPEEDUP:
        failures.append("index-scan speedup %.2fx < %.1fx"
                        % (index_speedup, MIN_INDEX_SCAN_SPEEDUP))
    if cache_speedup < MIN_STATEMENT_CACHE_SPEEDUP:
        failures.append("statement-cache speedup %.2fx < %.1fx"
                        % (cache_speedup, MIN_STATEMENT_CACHE_SPEEDUP))
    if calls > MAX_HIT_CALLS:
        failures.append("%d calls per statement-cache hit > %d"
                        % (calls, MAX_HIT_CALLS))
    write_bench_artifact(
        "planner", not failures, smoke=smoke,
        floors={
            "hash_chain": floor_entry(chain_speedup,
                                      MIN_HASH_CHAIN_SPEEDUP),
            "index_scan": floor_entry(index_speedup,
                                      MIN_INDEX_SCAN_SPEEDUP),
            "statement_cache": floor_entry(cache_speedup,
                                           MIN_STATEMENT_CACHE_SPEEDUP),
            "hit_calls": dict(floor_entry(BASELINE_HIT_CALLS / calls,
                                          MIN_HIT_CALL_REDUCTION),
                              calls=calls, max_calls=MAX_HIT_CALLS),
        },
        extra={"sql": sql, "tables": {"r": n_r, "s": n_s, "u": n_u},
               "repeats": repeats})
    print()
    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    print("planner floors hold (chain %.1fx, index %.1fx, statement "
          "cache %.1fx, %d calls per hit)"
          % (chain_speedup, index_speedup, cache_speedup, calls))
    return 0


def test_planner_floors(benchmark):
    """pytest-benchmark flavor (part of ``make bench``)."""
    code = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1,
                              iterations=1)
    assert code == 0


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv[1:]))
