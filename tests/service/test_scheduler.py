"""Scheduler semantics: parallel == sequential, cache reuse, timeouts."""

import time

import pytest

from repro.core.qbs import QBSOptions
from repro.core.synthesizer import SynthesisOptions
from repro.corpus.registry import (
    ALL_FRAGMENTS,
    ITRACKER_FRAGMENTS,
    WILOS_FRAGMENTS,
    select_fragments,
)
from repro.service import scheduler as scheduler_module
from repro.service.cache import ResultCache
from repro.service.jobs import execute_job
from repro.service.scheduler import Scheduler, outcome_fingerprint

#: the shared identity contract — one definition, used here and by
#: benchmarks/bench_qbs_parallel.py.
_fingerprint = outcome_fingerprint


def test_parallel_is_outcome_identical_to_sequential_on_fig13():
    fragments = WILOS_FRAGMENTS + ITRACKER_FRAGMENTS
    sequential = Scheduler(workers=1).run(fragments)
    parallel = Scheduler(workers=4).run(fragments)
    assert len(sequential.outcomes) == len(fragments)
    assert _fingerprint(sequential.outcomes) == _fingerprint(parallel.outcomes)
    assert sequential.failed == 0 and parallel.failed == 0
    # Submission order is preserved regardless of completion order.
    got = [o.job.fragment_id for o in parallel.outcomes]
    assert got == [cf.fragment_id for cf in fragments]


def test_worker_errors_become_failed_jobs(monkeypatch):
    def boom(fragment_id, options_dict):
        if fragment_id == "w42":
            raise RuntimeError("synthetic worker crash")
        return execute_job(fragment_id, options_dict)

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", boom)
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    for workers in (1, 2):
        report = Scheduler(workers=workers).run(fragments)
        by_id = {o.job.fragment_id: o for o in report.outcomes}
        assert not by_id["w42"].ok
        assert "synthetic worker crash" in by_id["w42"].error
        assert by_id["w40"].ok and by_id["i2"].ok


def test_cache_hits_skip_recomputation(tmp_path, monkeypatch):
    calls = []

    def counting(fragment_id, options_dict):
        calls.append(fragment_id)
        return execute_job(fragment_id, options_dict)

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", counting)
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    cache = ResultCache(str(tmp_path))

    first = Scheduler(workers=1, cache=cache).run(fragments)
    assert len(calls) == 3 and first.cache_hits == 0

    second = Scheduler(workers=1, cache=cache).run(fragments)
    assert len(calls) == 3          # nothing recomputed
    assert second.cache_hits == 3
    assert _fingerprint(first.outcomes) == _fingerprint(second.outcomes)


def test_cache_invalidates_when_options_change(tmp_path, monkeypatch):
    calls = []

    def counting(fragment_id, options_dict):
        calls.append(fragment_id)
        return execute_job(fragment_id, options_dict)

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", counting)
    fragments = select_fragments(ids=["w40"])
    cache = ResultCache(str(tmp_path))

    Scheduler(workers=1, cache=cache).run(fragments)
    tweaked = QBSOptions(synthesis=SynthesisOptions(max_level=2))
    Scheduler(workers=1, cache=cache, options=tweaked).run(fragments)
    assert len(calls) == 2          # options change -> key change -> miss

    Scheduler(workers=1, cache=cache).run(fragments)
    Scheduler(workers=1, cache=cache, options=tweaked).run(fragments)
    assert len(calls) == 2          # both configurations now cached


def test_refresh_recomputes_and_restores(tmp_path, monkeypatch):
    calls = []

    def counting(fragment_id, options_dict):
        calls.append(fragment_id)
        return execute_job(fragment_id, options_dict)

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", counting)
    fragments = select_fragments(ids=["w40"])
    cache = ResultCache(str(tmp_path))
    Scheduler(workers=1, cache=cache).run(fragments)
    Scheduler(workers=1, cache=cache, refresh=True).run(fragments)
    assert len(calls) == 2


def _sleepy_runner(fragment_id, options_dict):
    if fragment_id == "w40":
        time.sleep(60)
    return execute_job(fragment_id, options_dict)


def test_worker_timeout_surfaces_as_failed_job(monkeypatch):
    # Workers start via fork, so they inherit the patched runner.
    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", _sleepy_runner)
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    start = time.perf_counter()
    report = Scheduler(workers=2, job_timeout=2.0).run(fragments)
    elapsed = time.perf_counter() - start

    assert elapsed < 30             # no hang: the batch came back
    by_id = {o.job.fragment_id: o for o in report.outcomes}
    assert not by_id["w40"].ok
    assert "timeout" in by_id["w40"].error
    assert by_id["w42"].ok and by_id["i2"].ok
    assert report.failed == 1


def _very_sleepy_runner(fragment_id, options_dict):
    if fragment_id in ("w40", "w42"):
        time.sleep(60)
    return execute_job(fragment_id, options_dict)


def test_saturated_pool_still_completes_queued_jobs(monkeypatch):
    # Both workers hang; the queued job must still run (on replacement
    # workers) and must NOT be mislabeled as a timeout it never had.
    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER",
                        _very_sleepy_runner)
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    report = Scheduler(workers=2, job_timeout=1.5).run(fragments)
    by_id = {o.job.fragment_id: o for o in report.outcomes}
    assert "timeout" in by_id["w40"].error
    assert "timeout" in by_id["w42"].error
    assert by_id["i2"].ok
    assert report.failed == 2


def _dying_runner(fragment_id, options_dict):
    if fragment_id == "w42":
        import os
        os._exit(3)             # hard crash: no reply, no cleanup
    return execute_job(fragment_id, options_dict)


def test_worker_death_mid_job_fails_only_that_job(monkeypatch):
    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", _dying_runner)
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    report = Scheduler(workers=2).run(fragments)
    by_id = {o.job.fragment_id: o for o in report.outcomes}
    assert not by_id["w42"].ok
    assert "worker died" in by_id["w42"].error
    assert by_id["w40"].ok and by_id["i2"].ok
    assert report.failed == 1


def test_scheduler_rejects_zero_workers():
    with pytest.raises(ValueError):
        Scheduler(workers=0)


def test_select_fragments_rejects_ids_outside_app_scope():
    with pytest.raises(KeyError):
        select_fragments(app="wilos", ids=["i2"])
    with pytest.raises(KeyError):
        select_fragments(ids=["no_such_fragment"])
    assert [cf.fragment_id
            for cf in select_fragments(app="itracker", ids=["i2"])] == ["i2"]


def test_stop_event_winds_down_early(monkeypatch):
    import threading

    calls = []

    def counting(fragment_id, options_dict):
        calls.append(fragment_id)
        return execute_job(fragment_id, options_dict)

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", counting)
    fragments = select_fragments(ids=["w40", "w42", "w46", "i2"])
    stop = threading.Event()
    seen = []
    for outcome in Scheduler(workers=1).run_iter(fragments,
                                                 stop_event=stop):
        seen.append(outcome)
        stop.set()
    assert len(seen) == 1
    assert len(calls) < len(fragments)


def test_stop_event_stops_a_pool_run_promptly(monkeypatch):
    # Both workers sleep for a minute: a stop must not wait for them.
    import multiprocessing
    import threading

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER",
                        _very_sleepy_runner)
    fragments = select_fragments(ids=["w40", "w42"])
    before = {p.pid for p in multiprocessing.active_children()}
    stop = threading.Event()
    timer = threading.Timer(0.5, stop.set)
    timer.start()
    start = time.perf_counter()
    try:
        seen = list(Scheduler(workers=2).run_iter(fragments,
                                                  stop_event=stop))
    finally:
        timer.cancel()
    assert time.perf_counter() - start < 10
    assert seen == []
    # The busy workers were reaped, not left sleeping.
    assert {p.pid for p in multiprocessing.active_children()} <= before


def test_worker_dying_while_idle_is_replaced_without_failing_a_job(
        monkeypatch, tmp_path):
    import multiprocessing
    import os

    from repro.service import pool as pool_mod

    def recording(fragment_id, options_dict):
        (tmp_path / fragment_id).write_text(str(os.getpid()))
        if fragment_id == "w40":
            time.sleep(2)       # still busy when i2's worker goes idle
        return execute_job(fragment_id, options_dict)

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", recording)
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    respawns = pool_mod._RESPAWNS.total()
    outcomes = []
    for outcome in Scheduler(workers=2).run_iter(fragments):
        outcomes.append(outcome)
        if len(outcomes) == 1:
            # i2's worker is idle and w42 not yet sent to it: kill it.
            pid = int((tmp_path / "i2").read_text())
            (idle,) = [p for p in multiprocessing.active_children()
                       if p.pid == pid]
            idle.kill()
            idle.join()
    assert [o.job.fragment_id for o in outcomes] == ["i2", "w40", "w42"]
    assert all(o.ok and o.attempts == 1 for o in outcomes)
    pids = {int((tmp_path / f).read_text()) for f in ("i2", "w40", "w42")}
    assert len(pids) == 3               # w42 ran on the replacement
    assert pool_mod._RESPAWNS.total() - respawns == 1


def test_full_corpus_counts_through_service():
    report = Scheduler(workers=1).run(list(ALL_FRAGMENTS))
    markers = [o.result.status.marker for o in report.outcomes]
    assert markers.count("X") == 40      # 33 Fig. 13 + 7 advanced
    assert markers.count("†") == 9
    assert markers.count("*") == 9
