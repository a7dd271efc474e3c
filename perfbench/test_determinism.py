"""The benchmark's exact counters repeat for a seed, and every result
matches its reference.

Each workload runs its traced run briefly, twice per seed, on two
seeds: one set-up, one untraced and one traced pass over a handful of
fragments or pages, and databases a twentieth of the benchmark's size.
Every counter the traced run reports per operation must come out
identical for the same seed, the run must end with no failed operation
and no mismatch, and the layer spans must cover at least 90% of the
traced time.

Run with ``python -m pytest perfbench -q`` from the repo root.
"""

import pytest

from perfbench import datagen, workloads

#: translated (X), failed (*) and rejected (†) fragments; among the
#: translated ones an IN-subquery page, joins, a GROUP BY page, a set
#: result and pages with arguments.
FRAGMENTS = ("w17", "w20", "w23", "w29", "w46", "i2", "i13",
             "adv_groupcnt")

EXACT = workloads.COUNT_METRICS + (
    "core.eval_memo_hit_ratio", "core.checker_pass_ratio",
    "core.prover_proved_ratio", "tor.sqlgen_accept_ratio",
    "sql.rows_scanned_per_row_returned")


@pytest.fixture(autouse=True)
def brief(monkeypatch):
    monkeypatch.setattr(workloads.Workload, "fragment_ids", FRAGMENTS)
    monkeypatch.setattr(datagen, "PAGE_REPEATS", 1)
    monkeypatch.setattr(datagen, "SIZES", {
        scale: {table: max(5, rows // 20) for table, rows in sizes.items()}
        for scale, sizes in datagen.SIZES.items()})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_and_results_match(name):
    for seed in (1, 2):
        runs = [workloads.traced(name, seed, seconds=0) for _ in range(2)]
        for result in runs:
            assert result["correct"], result
            assert result["failed"] == 0
            coverage = result["metrics"]["trace.coverage_ratio"]["value"]
            assert coverage >= 0.9, coverage
        first, second = ({metric: result["metrics"][metric]["value"]
                          for metric in EXACT} for result in runs)
        assert first == second
        assert sum(first.values()) > 0
