"""The sampling profiler: free when off, span-attributed when on.

Sample *counts* are statistical, so the golden comparisons mask them
(``format_summary(..., mask_counts=True)``) and compare the
deterministic ``spans_seen`` universe instead — which spans were
entered while profiling is a property of the plan, not of scheduler
timing.
"""

import sys
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.profile import NO_SPAN, Profiler, format_summary
from repro.sql.database import Database
from repro.sql.errors import SQLExecutionError

SQL = "SELECT e.g, COUNT(*) AS n FROM ev AS e GROUP BY e.g"

#: the deterministic masked form of a profiled serial run of SQL.
GOLDEN_SERIAL = """\
profile  samples=*
span FullScan(ev AS e)  samples=*
span GroupBy(e.g)  samples=*
span query  samples=*"""


def _make_db(options=None):
    db = Database(options)
    db.create_table("ev", ["id", "g"])
    db.insert_many("ev", [{"id": i, "g": i % 3} for i in range(4000)])
    db.analyze()
    return db


def _masked(profiler):
    return format_summary(profiler.summary(), mask_counts=True)


# -- free when off -----------------------------------------------------------


def test_off_path_is_untouched():
    """No profile argument: no trace, no profiler, identical results."""
    db = _make_db()
    plain = db.execute(SQL)
    assert plain.trace is None
    assert plain.profile is None
    profiled = _make_db().execute(SQL, profile=True)
    assert profiled.rows == plain.rows
    assert profiled.columns == plain.columns
    assert profiled.stats == plain.stats
    assert profiled.profile.spans_seen  # but this one did sample


def test_explain_identical_with_profiler_sampling():
    db = _make_db()
    before = db.explain(SQL)
    with Profiler(interval_seconds=0.001).sampling():
        during = db.explain(SQL)
    assert during == before


def test_profiling_registers_no_new_instruments():
    """The profiler writes no metrics — the registry's instrument set
    is identical before and after a profiled query."""
    db = _make_db()
    db.execute(SQL)  # fault in every engine instrument first
    names = set(obs_metrics.REGISTRY.snapshot())
    db.execute(SQL, profile=True)
    assert set(obs_metrics.REGISTRY.snapshot()) == names


def test_profile_false_and_none_take_the_off_path():
    db = _make_db()
    for off in (None, False):
        result = db.execute(SQL, profile=off)
        assert result.profile is None
        assert result.trace is None


# -- span attribution --------------------------------------------------------


def test_busy_loop_samples_attribute_to_active_span():
    prof = Profiler(interval_seconds=0.001)
    with prof.sampling():
        with obs_trace.Span("hot-loop"):
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                sum(range(500))
    assert prof.samples_total > 0
    assert "hot-loop" in prof.spans_seen
    labels = {label for label, _ in prof.samples}
    assert labels <= {"hot-loop", NO_SPAN}
    assert "hot-loop" in labels


def test_masked_golden_serial():
    result = _make_db().execute(SQL, profile=True)
    assert _masked(result.profile) == GOLDEN_SERIAL


def test_shared_profiler_accumulates_across_queries():
    db = _make_db()
    prof = Profiler(interval_seconds=0.001)
    first = db.execute(SQL, profile=prof)
    second = db.execute(SQL, profile=prof)
    assert first.profile is prof and second.profile is prof
    assert _masked(prof) == GOLDEN_SERIAL


# -- lifecycle ---------------------------------------------------------------


def test_start_twice_and_second_live_profiler_are_errors():
    prof = Profiler(interval_seconds=0.001)
    prof.start()
    try:
        with pytest.raises(RuntimeError):
            prof.start()
        with pytest.raises(RuntimeError):
            Profiler(interval_seconds=0.001).start()
    finally:
        prof.stop()
    assert obs_profile.installed() is None
    prof.stop()  # idempotent


def test_sampling_is_reentrancy_safe():
    prof = Profiler(interval_seconds=0.001)
    with prof.sampling():
        with prof.sampling():  # inner: no-op, does not stop the outer
            assert prof.active
        assert prof.active
    assert not prof.active


def test_switch_interval_is_lowered_while_sampling_and_restored():
    """The sampler gets the interpreter lock within a short query:
    sampling lowers the switch interval to at most a tenth of the
    sampling interval, and stopping restores it, also after a profiled
    query that raises."""
    outside = sys.getswitchinterval()
    sys.setswitchinterval(0.005)
    try:
        prof = Profiler(interval_seconds=0.002)
        with prof.sampling():
            assert sys.getswitchinterval() <= 0.0002
        assert sys.getswitchinterval() == 0.005
        with Profiler(interval_seconds=1.0).sampling():
            assert sys.getswitchinterval() == 0.005
        db = _make_db()
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT e.nope FROM ev AS e", profile=True)
        assert sys.getswitchinterval() == 0.005
        assert obs_profile.installed() is None
    finally:
        sys.setswitchinterval(outside)


def test_bad_interval_rejected():
    with pytest.raises(ValueError):
        Profiler(interval_seconds=0)


# -- merging profiles --------------------------------------------------------


def test_payload_absorb_roundtrip_merges():
    a = Profiler()
    a.samples[("query", "main;run")] = 3
    a.spans_seen.add("query")
    a.sample_count = 3
    b = Profiler()
    b.samples[("query", "main;run")] = 2
    b.samples[("worker", "main;work")] = 1
    b.spans_seen.update({"query", "worker"})
    b.sample_count = 3
    a.absorb(b.payload())
    assert a.samples[("query", "main;run")] == 5
    assert a.samples[("worker", "main;work")] == 1
    assert a.spans_seen == {"query", "worker"}
    assert a.sample_count == 6


# -- surfaces ----------------------------------------------------------------


def test_synthesizer_accepts_a_profiler():
    from repro.core.synthesizer import Synthesizer
    from repro.corpus.registry import compile_fragment, select_fragments

    (cf,) = select_fragments(ids=["w40"])
    fragment = compile_fragment(cf)
    prof = Profiler(interval_seconds=0.001)
    plain = Synthesizer(fragment).synthesize()
    observed = Synthesizer(fragment).synthesize(profiler=prof)
    assert observed.succeeded == plain.succeeded
    assert "synthesis" in prof.spans_seen
    assert not prof.active


def test_profiler_ignores_other_threads_spans_for_its_own_stack():
    """Span stacks are per-thread: a span entered on a worker thread
    never mislabels samples of the main thread."""
    prof = Profiler(interval_seconds=0.001)
    seen_on_worker = []

    def worker():
        with obs_trace.Span("worker-span"):
            time.sleep(0.05)
        seen_on_worker.append(True)

    with prof.sampling():
        thread = threading.Thread(target=worker)
        thread.start()
        with obs_trace.Span("main-span"):
            deadline = time.perf_counter() + 0.1
            while time.perf_counter() < deadline:
                sum(range(500))
        thread.join()
    assert seen_on_worker == [True]
    assert {"worker-span", "main-span"} <= prof.spans_seen
    for (label, stack) in prof.samples:
        if "worker" in stack and label not in (NO_SPAN,):
            assert label == "worker-span"
