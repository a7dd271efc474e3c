"""End-to-end tracing contracts across the engine and the service.

Two acceptance claims from the observability layer, pinned here,
plus the scheduler's job spans:

* **off means off** — with no trace active, queries return exactly
  what they returned before the layer existed (``result.trace`` is
  ``None``, EXPLAIN text unchanged, no ``time=`` column);
* **golden tree shape** — a traced run yields a deterministic span
  tree (:func:`repro.obs.trace.format_tree` masks the one
  nondeterministic field, wall-clock), asserted against a golden
  rendering.
"""

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import Span, format_tree
from repro.service.scheduler import Scheduler
from repro.corpus.registry import select_fragments
from repro.sql.database import Database

SQL = "SELECT e.g, COUNT(*) AS n FROM ev AS e GROUP BY e.g"

GOLDEN_SERIAL = """\
query  [mode=planner, rows=3, sql=SELECT e.g, COUNT(*) AS n \
FROM ev AS e GROUP BY e.g]
  Aggregate  [op=GroupBy(e.g), rows=3]
    FullScan  [op=FullScan(ev AS e), rows=10]"""


@pytest.fixture()
def db():
    db = Database()
    db.create_table("ev", ("id", "g", "v"))
    db.insert_many("ev", ({"id": i, "g": i % 3, "v": i}
                          for i in range(10)))
    return db


# -- off means off -------------------------------------------------------------


def test_untraced_execution_is_unchanged(db):
    result = db.execute(SQL)
    assert result.trace is None
    assert not obs_trace.enabled()
    traced = db.execute(SQL, trace=True)
    assert list(traced.rows) == list(result.rows)
    assert traced.columns == result.columns
    assert traced.stats == result.stats
    # QueryResult equality ignores the trace attachment.
    assert traced == result


def test_untraced_explain_has_no_timing_column(db):
    text = db.explain(SQL, analyze=True)
    assert "time=" not in text
    timed = db.explain(SQL, analyze=True, timing=True)
    assert "time=" in timed
    # The timing run leaves no ambient trace behind.
    assert not obs_trace.enabled()


# -- golden tree shape ---------------------------------------------------------


def test_golden_serial_trace(db):
    result = db.execute(SQL, trace=True)
    assert format_tree(result.trace) == GOLDEN_SERIAL
    # Every span in a traced run is timed.
    assert all(node.elapsed_seconds is not None
               for _, node in result.trace.walk())


def test_trace_rides_an_ambient_root(db):
    root = Span("suite")
    with root:
        db.execute(SQL)
    (query,) = root.children
    assert query.name == "query"
    assert query.tags["rows"] == 3


# -- scheduler job spans -------------------------------------------------------


def test_scheduler_emits_job_spans_under_ambient_root():
    fragments = select_fragments(ids=["w40", "w17"])
    root = Span("corpus-run")
    with root:
        report = Scheduler(workers=1).run(fragments)
    assert len(report.outcomes) == 2
    jobs = [c for c in root.children if c.name == "job"]
    assert {j.tags["fragment"] for j in jobs} == {"w40", "w17"}
    assert all(j.tags["attempts"] >= 1 for j in jobs)
    assert all(j.elapsed_seconds is not None for j in jobs)
    # The in-process run also exposes the synthesis interior, down to
    # the prover's normal-form memo traffic.
    # w17 is rejected before synthesis, so only w40 has an interior.
    synths = [c for c in root.children if c.name == "synthesis"]
    assert [s.tags["fragment"] for s in synths] \
        == ["wilos/w40_unfinished_projects"]
    proves = [node for s in synths for _, node in s.walk()
              if node.name == "prove"]
    assert proves
    assert all(node.tags["proved"] and "nf_cache_misses" in node.tags
               for node in proves)


def test_scheduler_untraced_stays_silent():
    fragments = select_fragments(ids=["w40"])
    report = Scheduler(workers=1).run(fragments)
    assert len(report.outcomes) == 1
    assert not obs_trace.enabled()
