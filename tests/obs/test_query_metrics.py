"""Per-query metrics of ``Database.execute``.

Every execution adds exactly one to ``repro_queries_total{mode}`` and
one observation to ``repro_query_seconds``, whichever path it takes
(statement-cache hit or miss, seed pipeline, traced, profiled); a run
that raises records nothing.
"""

import pytest

from repro.obs.metrics import REGISTRY
from repro.obs.trace import Span
from repro.sql.database import Database
from repro.sql.errors import SQLExecutionError
from repro.sql.executor import ExecutorOptions

POINT = "SELECT * FROM a AS t0 WHERE t0.k = :key"


def _db(options=None):
    db = Database(options)
    db.create_table("a", ("id", "k"))
    db.insert_many("a", ({"id": i, "k": i % 4} for i in range(12)))
    db.create_index("a", "k")
    return db


def _recorded():
    """(planner queries, legacy queries, latency observations)."""
    queries = REGISTRY.get("repro_queries_total")
    seconds = REGISTRY.get("repro_query_seconds")
    return (queries.value(mode="planner"), queries.value(mode="legacy"),
            sum(sample["count"] for sample in seconds.samples()))


def _idle_plan(db):
    return [plan for _, plan in db._statements[POINT].idle]


@pytest.mark.parametrize("case", ["hit", "miss", "seed", "trace",
                                  "ambient-trace", "profile"])
def test_each_execute_records_one_query(case):
    db = _db(ExecutorOptions(planner=case != "seed"))
    if case != "miss":
        db.execute(POINT, {"key": 1})
    cached = _idle_plan(db) if case != "miss" else None
    before = _recorded()
    if case == "trace":
        result = db.execute(POINT, {"key": 2}, trace=True)
    elif case == "profile":
        result = db.execute(POINT, {"key": 2}, profile=True)
    elif case == "ambient-trace":
        with Span("job"):
            result = db.execute(POINT, {"key": 2})
    else:
        result = db.execute(POINT, {"key": 2})
    after = _recorded()
    assert [r.id for r in result.rows] == [2, 6, 10]
    if case == "seed":
        assert (after[0] - before[0], after[1] - before[1]) == (0, 1)
        assert cached == []                 # the seed pipeline never plans
    else:
        assert (after[0] - before[0], after[1] - before[1]) == (1, 0)
        if case != "miss":                  # the run reused the plan
            assert _idle_plan(db) == cached and cached
    assert after[2] - before[2] == 1
    assert (result.trace is not None) == (case in ("trace", "profile",
                                                   "ambient-trace"))


def test_a_run_that_raises_records_nothing():
    db = _db()
    sql = "SELECT t0.id FROM a t0 WHERE t0.id < :bound"
    db.execute(sql, {"bound": 3})
    before = _recorded()
    with pytest.raises(SQLExecutionError, match="unbound parameter"):
        db.execute(sql)
    with pytest.raises(TypeError):
        db.execute(sql, {"bound": "x"})       # int < str, mid-run
    assert _recorded() == before


def test_query_series_keep_exporting_after_registry_reset():
    """``repro.sql.database`` binds its per-query series at import; a
    reset of the registry must not orphan them."""
    db = _db()
    db.execute(POINT, {"key": 1})
    REGISTRY.reset()
    db.execute(POINT, {"key": 1})
    assert _recorded() == (1, 0, 1)
    text = REGISTRY.exposition()
    assert 'repro_queries_total{mode="planner"} 1' in text
    assert "repro_query_seconds_count 1" in text
