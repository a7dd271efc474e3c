"""Figure 14c — join fragment (the running example, #46).

The dataset is constructed so the query returns *every* user at every
size (one role per user), isolating the join-strategy effect from
selectivity: the original performs an O(n^2) nested-loop join in
application code over fully hydrated entities, while the inferred query
runs as an O(n) hash join inside the engine and hydrates only the
output.  Paper shape: orders-of-magnitude gap, growing asymptotically.
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

SIZES = [100, 300, 1_000]
#: each measurement is the best of this many runs, each run after a
#: full garbage collection (``repro.bench.harness``).
REPEATS = 5


@pytest.fixture(scope="module")
def transformed(qbs):
    cf = next(f for f in WILOS_FRAGMENTS if f.fragment_id == "w46")
    result = run_fragment_through_qbs(cf, qbs)
    assert result.translated
    return TransformedFragment(result)


def run_sweep(transformed):
    def run_one(n):
        db = create_wilos_database()
        populate_wilos(db, n_users=n, n_roles=n)
        out = []
        for fetch in ("lazy", "eager"):
            out.append(measure_original(
                "original w46", n, make_wilos_service, db,
                "w46_get_role_users", fetch, repeats=REPEATS))
        out.append(measure_transformed("inferred w46", n, transformed, db,
                                       repeats=REPEATS))
        return out

    # One discarded pass at a tiny size so the first measured bucket
    # doesn't absorb one-time costs (compiled-eval caches, imports).
    run_one(200)
    return sweep(SIZES, run_one)


def test_fig14c_join(benchmark, transformed):
    print("\nFig. 14c — join (inferred SQL: %s)" % transformed.sql)
    measurements = benchmark.pedantic(run_sweep, args=(transformed,),
                                      rounds=1, iterations=1)

    by_size = {}
    for m in measurements:
        key = "inferred" if m.fetch == "n/a" else m.fetch
        by_size.setdefault(m.db_size, {})[key] = m

    for size, bucket in by_size.items():
        # Same answer, every user returned once.
        assert bucket["inferred"].rows_returned == size
        assert bucket["lazy"].rows_returned == size
        assert bucket["inferred"].seconds < bucket["lazy"].seconds

    sizes = sorted(by_size)
    small, large = by_size[sizes[0]], by_size[sizes[-1]]
    speedup_small = small["lazy"].seconds / small["inferred"].seconds
    speedup_large = large["lazy"].seconds / large["inferred"].seconds
    print("  speedup @%d: %.1fx   @%d: %.1fx"
          % (sizes[0], speedup_small, sizes[-1], speedup_large))
    write_bench_artifact(
        "fig14c_join",
        speedup_large > speedup_small and speedup_large > 10.0,
        measurements=[dataclasses.asdict(m) for m in measurements],
        extra={"speedup_small": speedup_small,
               "speedup_large": speedup_large})
    # Asymptotic separation: the nested loop is O(n^2), the hash join
    # O(n), so the speedup must grow markedly with n.
    assert speedup_large > speedup_small
    assert speedup_large > 10.0

    scale = sizes[-1] / sizes[0]
    original_growth = large["lazy"].seconds / small["lazy"].seconds
    inferred_growth = large["inferred"].seconds / small["inferred"].seconds
    print("  growth x%.0f data: original %.1fx, inferred %.1fx"
          % (scale, original_growth, inferred_growth))
    # Original grows super-linearly; inferred roughly linearly.
    assert original_growth > scale
    assert inferred_growth < original_growth
