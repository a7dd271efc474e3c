"""Unit tests for the worker pool's moving parts.

The scheduler-level contracts (outcome identity, chaos runs with exact
attempt counts) live in ``test_scheduler.py`` and ``test_faults.py``;
this file pins the pool mechanics in isolation: the length-prefixed
frame protocol, list-order dispatch through :meth:`WorkerPool.stream`,
job failures carried home unchanged, hung-worker replacement, a queued
job's wait bounded by the deadline, the closed-pool refusal and the
file-descriptor budget.
"""

import functools
import os
import time

import pytest

from repro.service import faults
from repro.service import pool as pool_mod
from repro.service.pool import WorkerPool


# -- framing -------------------------------------------------------------------


def test_frame_roundtrip_over_a_pipe():
    read_fd, write_fd = os.pipe()
    try:
        # Stay under the 64 KiB pipe buffer: there is no concurrent
        # reader here, so a larger frame would block the writer.
        for payload in (b"x", b"a" * 30000, b""):
            pool_mod._write_frame(write_fd, payload)
            assert pool_mod._read_frame(read_fd) == payload
    finally:
        os.close(read_fd)
        os.close(write_fd)


def test_eof_at_frame_boundary_reads_as_none():
    read_fd, write_fd = os.pipe()
    pool_mod._write_frame(write_fd, b"last")
    os.close(write_fd)
    try:
        assert pool_mod._read_frame(read_fd) == b"last"
        assert pool_mod._read_frame(read_fd) is None  # clean close
    finally:
        os.close(read_fd)


def test_eof_mid_frame_is_corruption_not_a_clean_close():
    read_fd, write_fd = os.pipe()
    # A header promising 100 bytes, then only 3 before the close.
    os.write(write_fd, pool_mod._HEADER.pack(100) + b"abc")
    os.close(write_fd)
    try:
        with pytest.raises(EOFError):
            pool_mod._read_frame(read_fd)
    finally:
        os.close(read_fd)


# -- jobs (module-level functions: forked workers inherit this module) ---------


def _plus_100(x):
    return x + 100


def _bad_item_two(x):
    if x == 2:
        raise ValueError("bad item %d" % x)
    return x


def _hang_on_first_attempt(x):
    if faults.current_attempt() == 1:
        time.sleep(60)
    return x


def _jobs(fn, items):
    return [functools.partial(fn, item) for item in items]


@pytest.fixture
def one_worker_pool():
    pool = WorkerPool(size=1)
    yield pool
    pool.close()


def _deltas(action):
    """Run ``action``; return its result and the pool counter deltas."""
    counters = {"dispatches": pool_mod._DISPATCHES,
                "respawns": pool_mod._RESPAWNS,
                "retries": pool_mod._RETRIES}
    before = {name: c.total() for name, c in counters.items()}
    result = action()
    return result, {name: c.total() - before[name]
                    for name, c in counters.items()}


def test_empty_job_list_is_a_noop(one_worker_pool):
    assert list(one_worker_pool.stream([])) == []


def test_results_come_back_in_job_order(one_worker_pool):
    """On one worker, jobs start and so finish in list order."""
    done = list(one_worker_pool.stream(_jobs(_plus_100, (3, 1, 2))))
    assert [(d.index, d.value, d.error, d.attempts) for d in done] == \
        [(0, 103, None, 1), (1, 101, None, 1), (2, 102, None, 1)]


def test_job_exceptions_come_back_unchanged(one_worker_pool):
    """A job's own exception is final at once (no retry) and travels
    home as itself; the pool stays usable."""
    done = {d.index: d for d in one_worker_pool.stream(
        _jobs(_bad_item_two, (1, 2, 3)))}
    assert [done[i].value for i in (0, 2)] == [1, 3]
    error = done[1].error
    assert type(error) is ValueError and str(error) == "bad item 2"
    assert done[1].attempts == 1
    again = one_worker_pool.stream(_jobs(_plus_100, (1,)))
    assert [d.value for d in again] == [101]


def test_hung_worker_is_replaced_and_the_job_retried():
    """A job past its timeout costs its worker: the pool kills it,
    forks a replacement and retries the job there — exactly one
    respawn, one retry and three dispatches for two jobs."""
    pool = WorkerPool(size=2)
    try:
        jobs = [functools.partial(_hang_on_first_attempt, 7),
                functools.partial(_plus_100, 8)]
        done, deltas = _deltas(lambda: sorted(
            pool.stream(jobs, job_timeout=1.0), key=lambda d: d.index))
        assert [(d.value, d.error, d.attempts) for d in done] == \
            [(7, None, 2), (108, None, 1)]
        assert deltas == {"dispatches": 3, "respawns": 1, "retries": 1}
        # The pool keeps serving with its replacement worker.
        assert [d.value for d in pool.stream(_jobs(_plus_100, (1,)))] \
            == [101]
    finally:
        pool.close()


def test_waiting_for_the_pool_honours_the_deadline(one_worker_pool):
    """A job queued behind a busy worker waits no longer than the run's
    deadline: at expiry the running job is reaped and the waiting one
    finishes without ever starting."""
    jobs = [functools.partial(_hang_on_first_attempt, 1),
            functools.partial(_plus_100, 2)]
    begin = time.perf_counter()
    running, waiting = sorted(
        one_worker_pool.stream(jobs, deadline=faults.Deadline.after(0.3)),
        key=lambda d: d.index)
    assert time.perf_counter() - begin < 10
    assert isinstance(running.error, faults.DeadlineExceeded)
    assert "while running" in str(running.error)
    assert running.attempts == 1
    assert isinstance(waiting.error, faults.DeadlineExceeded)
    assert "before start" in str(waiting.error)
    assert waiting.attempts == 0
    # The reaped worker is replaced: the pool serves the next run.
    assert [d.value for d in one_worker_pool.stream(
        _jobs(_plus_100, (1,)))] == [101]


def test_many_jobs_fit_a_small_fd_budget():
    """200 jobs hold pipes for the pool's two workers only, never one
    per job.  Run under a file-descriptor budget far below what a
    process per job needs, so a regression fails with EMFILE instead
    of silently over-forking."""
    import resource

    pool = WorkerPool(size=2)
    used = len(os.listdir("/proc/self/fd"))
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    budget = min(used + 32, hard if hard != resource.RLIM_INFINITY
                 else used + 32)
    resource.setrlimit(resource.RLIMIT_NOFILE, (budget, hard))
    try:
        done = list(pool.stream(_jobs(_plus_100, range(200))))
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        pool.close()
    assert sorted((d.index, d.value) for d in done) == \
        [(i, i + 100) for i in range(200)]
    assert all(d.error is None for d in done)


def test_closed_pool_refuses_new_work():
    pool = WorkerPool(size=1)
    pool.close()
    with pytest.raises(faults.SubstrateUnavailable):
        list(pool.stream(_jobs(_plus_100, (1,))))
