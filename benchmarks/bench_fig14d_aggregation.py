"""Figure 14d — aggregation fragment (#38).

The fragment counts process-manager users.  The original retrieves and
hydrates every matching participant just to take the length of the
list; the inferred COUNT query returns a single number.  Paper shape:
multiple orders of magnitude at scale, since the inferred version's
result size is constant.
"""

import dataclasses

import pytest

from repro.bench.harness import (
    measure_original,
    measure_transformed,
    sweep,
    write_bench_artifact,
)
from repro.core.transform import TransformedFragment
from repro.corpus.registry import WILOS_FRAGMENTS, run_fragment_through_qbs
from repro.corpus.schema import create_wilos_database, populate_wilos
from repro.corpus.wilos import make_wilos_service

SIZES = [2_000, 10_000, 40_000]
#: each measurement is the best of this many runs, each run after a
#: full garbage collection (``repro.bench.harness``).
REPEATS = 5


@pytest.fixture(scope="module")
def transformed(qbs):
    cf = next(f for f in WILOS_FRAGMENTS if f.fragment_id == "w38")
    result = run_fragment_through_qbs(cf, qbs)
    assert result.translated
    return TransformedFragment(result)


def run_sweep(transformed):
    def run_one(n):
        db = create_wilos_database()
        populate_wilos(db, n_users=n, manager_fraction=0.1)
        out = []
        for fetch in ("lazy", "eager"):
            out.append(measure_original(
                "original w38", n, make_wilos_service, db,
                "w38_count_process_managers", fetch, repeats=REPEATS))
        out.append(measure_transformed("inferred w38", n, transformed, db,
                                       repeats=REPEATS))
        return out

    # One discarded pass at a tiny size so the first measured bucket
    # doesn't absorb one-time costs (compiled-eval caches, imports).
    run_one(200)
    return sweep(SIZES, run_one)


def test_fig14d_aggregation(benchmark, transformed):
    print("\nFig. 14d — aggregation (inferred SQL: %s)" % transformed.sql)
    measurements = benchmark.pedantic(run_sweep, args=(transformed,),
                                      rounds=1, iterations=1)

    by_size = {}
    for m in measurements:
        key = "inferred" if m.fetch == "n/a" else m.fetch
        by_size.setdefault(m.db_size, {})[key] = m

    for size, bucket in by_size.items():
        assert bucket["inferred"].seconds < bucket["lazy"].seconds
        assert bucket["inferred"].seconds < bucket["eager"].seconds
        # The inferred version hydrates nothing beyond the count.
        assert bucket["inferred"].rows_returned == 1
        assert bucket["lazy"].objects_hydrated >= size

    sizes = sorted(by_size)
    small, large = by_size[sizes[0]], by_size[sizes[-1]]
    speedup = large["lazy"].seconds / large["inferred"].seconds
    eager_speedup = large["eager"].seconds / large["inferred"].seconds
    print("  speedup @%d: %.0fx (lazy), %.0fx (eager)" % (
        sizes[-1], speedup, eager_speedup))
    write_bench_artifact(
        "fig14d_aggregation", speedup > 10.0 and eager_speedup > 30.0,
        measurements=[dataclasses.asdict(m) for m in measurements],
        extra={"lazy_speedup": speedup, "eager_speedup": eager_speedup})
    assert speedup > 10.0
    assert eager_speedup > 30.0
    # The gap grows with database size (the paper's diverging curves).
    assert speedup > small["lazy"].seconds / small["inferred"].seconds
