"""Unit tests for the persistent worker pool's moving parts.

The SQL-level contracts (equivalence, chaos, cache metrics) live in
``tests/sql/``; this file pins the pool mechanics in isolation: the
length-prefixed frame protocol, the driver-owned LRU table cache and
its explicit ``drop`` frames, longest-estimate-first dispatch, one
dispatch at a time across threads, and the process-wide singleton
lifecycle.
"""

import os
import threading
import time

import pytest

from repro.service import pool as pool_mod
from repro.service.pool import WorkerPool, get_pool, reset_pool


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


# -- worker-visible jobs (picklable; children inherit this module) -------------


class FakeTable:
    """Just enough of a Table for shipping: rows with a length."""

    def __init__(self, n):
        self.rows = [None] * n


class CacheKeysJob:
    """Returns the digests the *worker* currently caches — the ground
    truth the driver's LRU bookkeeping must match."""

    def __init__(self, part=0, digests=(), est=0):
        self.part = part
        self.digest_map = {"t%d" % i: d for i, d in enumerate(digests)}
        self.est = est

    def run_in_worker(self, cache):
        return sorted(key for key in cache if not key.startswith("_"))


class SeqJob:
    """Returns its worker-side execution sequence number."""

    def __init__(self, part, est):
        self.part = part
        self.est = est
        self.digest_map = {}

    def run_in_worker(self, cache):
        seq = cache.get("_seq", 0)
        cache["_seq"] = seq + 1
        return seq


class EchoJob:
    """Returns ``(tag, part)`` after ``pause`` seconds in the worker."""

    est = 0
    digest_map = {}

    def __init__(self, tag, part, pause=0.0):
        self.tag = tag
        self.part = part
        self.pause = pause

    def run_in_worker(self, cache):
        time.sleep(self.pause)
        return self.tag, self.part


@pytest.fixture
def one_worker_pool():
    pool = WorkerPool(size=1, cache_tables_per_worker=2)
    yield pool
    pool.close()


def test_empty_job_list_is_a_noop(one_worker_pool):
    assert one_worker_pool.run_jobs([], {}) == []


def test_lru_eviction_sends_drop_frames(one_worker_pool):
    """With 2 cache slots, shipping a third table must evict the least
    recently used digest on *both* sides: the driver's bookkeeping and
    the worker's actual cache (via an explicit ``drop`` frame)."""
    pool = one_worker_pool
    tables = {"d1": FakeTable(3), "d2": FakeTable(4), "d3": FakeTable(5)}
    assert pool.run_jobs([CacheKeysJob(digests=("d1", "d2"))],
                         tables) == [["d1", "d2"]]
    worker = pool._workers[0]
    assert list(worker.cached) == ["d1", "d2"]
    # d3 arrives; d1 is oldest and must go — from the worker too.
    assert pool.run_jobs([CacheKeysJob(digests=("d2", "d3"))],
                         tables) == [["d2", "d3"]]
    assert list(worker.cached) == ["d2", "d3"]


def test_cache_hit_refreshes_lru_order(one_worker_pool):
    """Re-using a digest moves it to the young end, so the *other*
    table is the one evicted next."""
    pool = one_worker_pool
    tables = {"d1": FakeTable(1), "d2": FakeTable(1), "d3": FakeTable(1)}
    pool.run_jobs([CacheKeysJob(digests=("d1", "d2"))], tables)
    pool.run_jobs([CacheKeysJob(digests=("d1",))], tables)  # touch d1
    pool.run_jobs([CacheKeysJob(part=1, digests=("d3",))], tables)
    assert list(pool._workers[0].cached) == ["d1", "d3"]  # d2 evicted


def test_warm_pool_ships_each_table_once(one_worker_pool):
    """The worker is forked holding the first dispatch's table, so it
    is never shipped at all."""
    pool = one_worker_pool
    tables = {"d1": FakeTable(7)}
    shipped_before = pool_mod._ROWS_SHIPPED.total()
    for part in range(4):
        assert pool.run_jobs([CacheKeysJob(part=part, digests=("d1",))],
                             tables) == [["d1"]]
    assert pool_mod._ROWS_SHIPPED.total() == shipped_before


def test_table_arriving_later_ships_exactly_once(one_worker_pool):
    pool = one_worker_pool
    tables = {"d1": FakeTable(7), "d2": FakeTable(5)}
    pool.run_jobs([CacheKeysJob(digests=("d1",))], tables)
    shipped_before = pool_mod._ROWS_SHIPPED.total()
    for part in range(3):
        assert pool.run_jobs(
            [CacheKeysJob(part=part, digests=("d1", "d2"))],
            tables) == [["d1", "d2"]]
    assert pool_mod._ROWS_SHIPPED.total() == shipped_before + 5.0


def test_eviction_never_drops_a_table_the_job_reads():
    """A job reading more tables than the cache holds still finds all
    of them: the LRU only evicts digests the job does not need."""
    pool = WorkerPool(size=1, cache_tables_per_worker=2)
    try:
        tables = {"d%d" % i: FakeTable(1) for i in range(4)}
        pool.run_jobs([CacheKeysJob(digests=("d0", "d1"))], tables)
        assert pool.run_jobs([CacheKeysJob(digests=("d1", "d2", "d3"))],
                             tables) == [["d1", "d2", "d3"]]
    finally:
        pool.close()


def test_dispatch_is_longest_estimate_first(one_worker_pool):
    """On a single worker the execution order is fully observable: the
    job with the largest ``est`` runs first, ties break on index, and
    results still come back slotted in job order."""
    jobs = [SeqJob(part=0, est=1), SeqJob(part=1, est=5),
            SeqJob(part=2, est=3), SeqJob(part=3, est=5)]
    sequence = one_worker_pool.run_jobs(jobs, {})
    # est=5 (index 1), est=5 (index 3), est=3, est=1 — in job order the
    # sequence numbers land as below.
    assert sequence == [3, 0, 2, 1]


class FnJob:
    """Applies a module-level function to its part."""

    est = 0
    digest_map = {}

    def __init__(self, fn, part):
        self.fn = fn
        self.part = part

    def run_in_worker(self, cache):
        return self.fn(self.part)


def _plus_100(x):
    return x + 100


def test_results_come_back_in_job_order(one_worker_pool):
    jobs = [FnJob(_plus_100, part) for part in (3, 1, 2)]
    assert one_worker_pool.run_jobs(jobs, {}) == [103, 101, 102]


def _bad_item_two(x):
    if x == 2:
        raise ValueError("bad item %d" % x)
    return x


def test_job_exceptions_reraise_unchanged(one_worker_pool):
    with pytest.raises(ValueError, match="bad item 2"):
        one_worker_pool.run_jobs(
            [FnJob(_bad_item_two, part) for part in (1, 2, 3)], {})
    # The pool stays usable after an application error.
    assert one_worker_pool.run_jobs([FnJob(_plus_100, 1)], {}) == [101]


def test_many_partitions_fit_a_small_fd_budget():
    """A K=200 pool query holds pipes for the pool's few workers only,
    never one per partition.  Run under a file-descriptor budget far
    below what a process per partition needs, so a regression fails
    with EMFILE instead of silently over-forking."""
    import resource

    from repro.sql.database import Database
    from repro.sql.executor import ExecutorOptions

    db = Database()
    db.create_table("t", ("id", "v"))
    db.insert_many("t", ({"id": i, "v": i % 7} for i in range(400)))
    sql = "SELECT COUNT(*) AS n, SUM(t0.v) AS s FROM t t0 WHERE t0.v > 2"
    view = db.view(ExecutorOptions(parallel=200))
    reset_pool()
    used = len(os.listdir("/proc/self/fd"))
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    budget = min(used + 32, hard if hard != resource.RLIM_INFINITY
                 else used + 32)
    resource.setrlimit(resource.RLIMIT_NOFILE, (budget, hard))
    try:
        result = view.execute(sql)
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        reset_pool()
    assert list(result.rows) == list(db.execute(sql).rows)
    assert result.stats.degradations == 0


def test_single_task_runs_inline():
    """One partition, no fault plan and no deadline: the ladder runs
    the task in-process and never touches the pool."""
    from repro.sql.plan.parallel import run_tasks

    seen = []

    def record():
        seen.append(21)          # visible only if run in-process
        return 42

    dispatches = pool_mod._DISPATCHES.total()
    assert run_tasks([record]) == [42]
    assert seen == [21]
    assert pool_mod._DISPATCHES.total() == dispatches


# -- threads -------------------------------------------------------------------


def test_threads_calling_run_jobs_on_one_pool_get_their_own_results():
    """Two threads dispatching to one pool at once would interleave
    frames on the same workers' pipes and read each other's replies;
    ``run_jobs`` runs them one at a time instead.  Daemon threads and
    bounded joins make a hang fail the test instead of the suite."""
    pool = WorkerPool(size=2)
    got = {}

    def caller(tag):
        try:
            for _ in range(20):
                result = pool.run_jobs(
                    [EchoJob(tag, part, pause=0.001) for part in range(3)],
                    {})
                if result != [(tag, part) for part in range(3)]:
                    got[tag] = result
                    return
            got[tag] = "ok"
        except Exception as exc:    # noqa: BLE001 - reported below
            got[tag] = exc

    threads = [threading.Thread(target=caller, args=(tag,), daemon=True)
               for tag in "ab"]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads), "hung"
    finally:
        pool.close()
    assert got == {"a": "ok", "b": "ok"}


def test_waiting_for_the_pool_honours_the_deadline(one_worker_pool):
    from repro.service import faults

    outcome = []

    def slow():
        outcome.append(one_worker_pool.run_jobs(
            [EchoJob("slow", 0, pause=1.5)], {}))

    thread = threading.Thread(target=slow, daemon=True)
    thread.start()
    for _ in range(1000):   # until the slow call holds the pool
        if one_worker_pool._dispatching.locked():
            break
        time.sleep(0.01)
    begin = time.perf_counter()
    with pytest.raises(faults.DeadlineExceeded, match="waiting"):
        one_worker_pool.run_jobs([EchoJob("late", 0)], {},
                                 deadline=faults.Deadline.after(0.2))
    assert time.perf_counter() - begin < 1.0
    thread.join(30)
    assert outcome == [[("slow", 0)]]


# -- singleton lifecycle -------------------------------------------------------


def test_get_pool_is_a_singleton_until_reset():
    reset_pool()
    first = get_pool()
    try:
        assert get_pool() is first
        assert not first.closed
    finally:
        reset_pool()
    assert first.closed
    replacement = get_pool()
    try:
        assert replacement is not first
    finally:
        reset_pool()


def test_closed_pool_refuses_new_work():
    from repro.service import faults

    pool = WorkerPool(size=1)
    pool.close()
    with pytest.raises(faults.SubstrateUnavailable):
        pool.run_jobs([SeqJob(part=0, est=0)], {})


def test_scheduler_pool_leaves_the_workers_gauge_alone():
    """``repro_pool_workers`` reports the process-wide query pool only:
    a scheduler's per-run pool must not overwrite it, mid-run or after."""
    from repro.corpus.registry import select_fragments
    from repro.service.scheduler import Scheduler

    reset_pool()
    seen = [pool_mod._WORKERS.value()
            for _ in Scheduler(workers=2).run_iter(
                select_fragments(ids=["w40", "w42", "i2"]))]
    assert seen == [0.0, 0.0, 0.0]
    assert pool_mod._WORKERS.value() == 0.0


def test_workers_gauge_tracks_pool_size():
    reset_pool()
    pool = get_pool()
    try:
        pool.ensure_workers()
        assert pool_mod._WORKERS.value() == float(pool.size)
    finally:
        reset_pool()
    assert pool_mod._WORKERS.value() == 0.0
