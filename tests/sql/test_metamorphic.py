"""Metamorphic relations: transformed queries with provably equal (or
prefix-related) semantics must agree, row at a time and as a batch.

Unlike the differential fuzzer — which compares the *same* SQL across
execution modes — these relations compare *different* SQL texts whose
results are related by construction:

* **predicate commutation** — ``a AND b`` and ``b AND a`` select the
  same rows (rows/columns compared, *not* engine stats: conjunct order
  may change which predicate the planner turns into an index probe);
* **LIMIT monotonicity** — an ordered query with ``LIMIT k`` returns
  exactly the first k rows of the unlimited ordered result, for every
  k up to past the result size;
* **double negation** — ``WHERE p`` and ``WHERE NOT (NOT p)`` are
  identical, including engine stats (the rewrite keeps the predicate
  un-indexable in both forms only when ``p`` already isn't a plain
  equality, so stats are compared just for the safe shapes).

Every relation runs under the seed pipeline, which evaluates row at a
time (mode ``rows``), and under the default planner, whose operators
evaluate column batches: over the same 150-row table (``vectorized``)
and over one of 1,030 rows, past the 1,024 rows a batch once held
(``vectorized-1024``).
"""

import pytest

from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

#: mode -> (options, rows in the ``ev`` table)
MODES = {
    "rows": (ExecutorOptions(planner=False), 150),
    "vectorized": (ExecutorOptions(), 150),
    "vectorized-1024": (ExecutorOptions(), 1030),
}


@pytest.fixture(scope="module")
def dbs():
    """One ``ev`` database per table size in MODES."""
    built = {}
    for _, size in MODES.values():
        if size in built:
            continue
        db = Database()
        db.create_table("ev", ("id", "a", "b", "g", "v"))
        db.insert_many("ev", ({"id": i, "a": i % 11, "b": i % 7,
                               "g": i % 3, "v": (i * 13) % 97}
                              for i in range(size)))
        db.create_index("ev", "a")
        built[size] = db
    return built


def _view(dbs, mode):
    options, size = MODES[mode]
    return dbs[size].view(options)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("left,right", [
    ("t0.a = 3", "t0.v > 40"),
    ("t0.v > 40", "t0.b < 4"),
    ("t0.a > 2", "NOT t0.g = 1"),
])
def test_predicate_commutation(dbs, mode, left, right):
    view = _view(dbs, mode)
    forward = view.execute(
        "SELECT t0.id, t0.v FROM ev t0 WHERE %s AND %s" % (left, right))
    backward = view.execute(
        "SELECT t0.id, t0.v FROM ev t0 WHERE %s AND %s" % (right, left))
    # Rows and columns only: conjunct order may change which predicate
    # becomes the index probe, which changes the stats counters.
    assert list(forward.rows) == list(backward.rows)
    assert forward.columns == backward.columns


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("sql", [
    "SELECT t0.id, t0.v FROM ev t0 WHERE t0.v > 20 "
    "ORDER BY t0.v DESC, t0.id",
    "SELECT t0.g AS g, COUNT(*) AS n FROM ev t0 GROUP BY t0.g "
    "ORDER BY n DESC",
])
def test_limit_monotonicity(dbs, mode, sql):
    view = _view(dbs, mode)
    unlimited = view.execute(sql)
    total = len(unlimited.rows)
    for k in (0, 1, 2, 5, total, total + 10):
        limited = view.execute(sql + " LIMIT %d" % k)
        assert list(limited.rows) == list(unlimited.rows)[:k], (mode, k)
        assert limited.columns == unlimited.columns


def _stats_tuple(stats):
    return (stats.rows_scanned, stats.index_probes, stats.hash_joins,
            stats.nested_loop_joins, stats.index_scans, stats.full_scans)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("predicate", [
    "t0.v > 40",
    "t0.b < 3",
    "(t0.a > 5 OR t0.g = 1)",
])
def test_double_negation(dbs, mode, predicate):
    view = _view(dbs, mode)
    plain = view.execute(
        "SELECT t0.id FROM ev t0 WHERE %s" % predicate)
    doubled = view.execute(
        "SELECT t0.id FROM ev t0 WHERE NOT (NOT %s)" % predicate)
    assert list(plain.rows) == list(doubled.rows)
    assert plain.columns == doubled.columns
    # Non-equality predicates can't become index probes in either
    # form, so the stats contract holds too.
    assert _stats_tuple(plain.stats) == _stats_tuple(doubled.stats)
