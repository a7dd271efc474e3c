"""Figure 14a — selection fragment at 10% selectivity.

Fragment #40 returns the unfinished projects.  The original code
fetches *all* projects through the ORM and filters in application code;
the QBS version pushes the selection into the database and hydrates
only the matching 10%.  Paper shape: the inferred version outperforms
the original at every database size, in both lazy and eager modes, and
the gap grows with size.
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
SELECTIVITY = 0.10


@pytest.fixture(scope="module")
def transformed(qbs):
    cf = next(f for f in WILOS_FRAGMENTS if f.fragment_id == "w40")
    result = run_fragment_through_qbs(cf, qbs)
    assert result.translated
    return TransformedFragment(result)


def run_sweep(transformed, selectivity):
    def run_one(n_users):
        db = create_wilos_database()
        populate_wilos(db, n_users, unfinished_fraction=selectivity)
        out = []
        for fetch in ("lazy", "eager"):
            out.append(measure_original(
                "original w40", n_users, make_wilos_service, db,
                "w40_unfinished_projects", fetch, repeats=REPEATS))
        out.append(measure_transformed("inferred w40", n_users,
                                       transformed, db,
                                       repeats=REPEATS))
        return out

    # One discarded pass at a tiny size so the first measured bucket
    # doesn't absorb one-time costs (compiled-eval caches, imports).
    run_one(200)
    return sweep(SIZES, run_one)


def test_fig14a_selection_10pct(benchmark, transformed):
    print("\nFig. 14a — selection, 10%% selectivity (inferred SQL: %s)"
          % transformed.sql)
    measurements = benchmark.pedantic(run_sweep, args=(transformed,
                                                       SELECTIVITY),
                                      rounds=1, iterations=1)
    _assert_selection_shape(measurements, "fig14a_selection10")


def _assert_selection_shape(measurements, artifact_name):
    by_size = {}
    for m in measurements:
        key = "inferred" if m.fetch == "n/a" else m.fetch
        by_size.setdefault(m.db_size, {})[key] = m
    sizes = sorted(by_size)
    gaps = {size: by_size[size]["lazy"].seconds
            / by_size[size]["inferred"].seconds for size in sizes}
    ok = (gaps[sizes[-1]] > 1.0
          and all(b["inferred"].seconds < b["lazy"].seconds
                  and b["inferred"].seconds < b["eager"].seconds
                  for b in by_size.values()))
    write_bench_artifact(
        artifact_name, ok,
        measurements=[dataclasses.asdict(m) for m in measurements],
        extra={"lazy_speedup_by_size": gaps})
    for size, bucket in by_size.items():
        # Inferred beats both original modes at every size.
        assert bucket["inferred"].seconds < bucket["lazy"].seconds
        assert bucket["inferred"].seconds < bucket["eager"].seconds
        # Eager hydration costs at least as much as lazy (paper curves).
        assert bucket["eager"].seconds >= bucket["lazy"].seconds * 0.8
        # The inferred version hydrates only the selected fraction.
        assert bucket["inferred"].rows_returned \
            < bucket["lazy"].objects_hydrated
    print("  speedup @%d: %.1fx   @%d: %.1fx"
          % (sizes[0], gaps[sizes[0]], sizes[-1], gaps[sizes[-1]]))
    assert gaps[sizes[-1]] > 1.0
