"""The worker-process substrate: forked workers, one dispatch loop.

Everything in this repo that runs work in another process runs it
here: partition-parallel queries (every ``parallel=K > 1`` fan-out of
:func:`repro.sql.plan.parallel.run_tasks`, on the process-wide pool of
:func:`get_pool`) and QBS corpus batches (``Scheduler(workers>1)``,
which forks a pool per run and closes it at the end).  A
:class:`WorkerPool` is a fixed set of forked workers, each speaking a
length-prefixed pickle protocol over a dedicated pipe pair.

**Wire protocol.**  Every frame is a 4-byte big-endian length followed
by a pickle of ``(kind, payload)``:

* ``("store", (digest, table))`` — driver → worker: cache ``table``
  under its content ``digest``.  No reply.
* ``("run", (job, plan, key, attempt, profile))`` — driver → worker:
  execute ``job.run_in_worker(cache)`` after applying the shipped fault
  ``plan`` for ``(key, attempt)``, under a child profiler sampling
  every ``profile`` seconds when the driver is profiling.  Exactly one
  reply frame: ``("ok", result)``, ``("exc", exception)`` or
  ``("error", payload)`` (:func:`repro.service.faults.error_payload`:
  a failure the job classified itself, or a reply that will not
  pickle).
* ``("drop", digest)`` — driver → worker: evict one cached table.
* ``("shutdown", None)`` — driver → worker: exit cleanly.

**Catalog caching.**  Jobs carry a ``digest_map`` naming the tables
they read by content digest
(:meth:`repro.sql.catalog.Table.content_digest`).  A worker forked for
a dispatch starts with that dispatch's tables already in its cache,
inherited by fork; later the driver tracks which digests each worker
holds and ships a table at most once per worker per content version,
so a warm pool re-ships **zero** rows for an unchanged catalog.  Cache
slots are bounded (:data:`CACHE_TABLES_PER_WORKER`); the driver owns
the LRU decision, never evicts a table the dispatched job reads, and
sends explicit ``drop`` frames so both sides stay in sync.

**Faults.**  :meth:`WorkerPool.stream` is the one dispatch loop.  A
worker that dies mid-job (pipe EOF) or runs past the per-job timeout
is killed and replaced, and the job retried under the pool's
:class:`~repro.service.faults.RetryPolicy`; a worker found dead at
dispatch (a broken pipe) is replaced and its job goes back to the
front of the queue without spending an attempt; a reply that will not
decode retries without a respawn (the worker finished the frame — it
is healthy); a failure the job classified itself retries by its kind.
A job's plain exception is final at once, and so is every unfinished
job when the deadline expires.  The caller picks what a final failure
means: :meth:`WorkerPool.run_jobs` raises it (a partition query, whose
substrate faults the degradation ladder then absorbs), while the
scheduler records it as a classified ``JobOutcome`` and carries on.
Workers forked before a fault plan was installed never see it, so the
plan rides inside each ``run`` frame and is applied worker-side.

**Threads.**  A dispatch owns every worker's pipes until it ends, so
:meth:`WorkerPool.run_jobs` runs one call at a time per pool (queries
on several threads share the process-wide pool and queue for it); a
call waiting its turn still honours its own deadline.

Everything here is stdlib-only.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import pickle
import select
import struct
import threading
import time
from collections import OrderedDict
from typing import (Any, Dict, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence)

from repro.obs import metrics as obs_metrics
from repro.service import faults

#: cached tables per worker before the driver starts evicting LRU —
#: bounds worker memory across long query streams over many databases.
CACHE_TABLES_PER_WORKER = 64

#: grace given at each shutdown escalation step (shutdown frame,
#: SIGTERM) before moving on to the next; SIGKILL ends the ladder.
_JOIN_GRACE = 5.0

_HEADER = struct.Struct(">I")

_WORKERS = obs_metrics.gauge(
    "repro_pool_workers",
    "Live worker processes in the process-wide query pool.")
_DISPATCHES = obs_metrics.counter(
    "repro_pool_dispatches_total",
    "Jobs dispatched to pool workers.")
_CACHE_HITS = obs_metrics.counter(
    "repro_pool_cache_hits_total",
    "Table ships skipped because the worker already cached the digest.")
_CACHE_MISSES = obs_metrics.counter(
    "repro_pool_cache_misses_total",
    "Tables shipped to a worker that did not hold the digest.")
_ROWS_SHIPPED = obs_metrics.counter(
    "repro_pool_rows_shipped_total",
    "Table rows serialized to pool workers (0 on a warm pool).")
_RESPAWNS = obs_metrics.counter(
    "repro_pool_respawns_total",
    "Pool workers respawned after dying or timing out mid-job.")
_RETRIES = obs_metrics.counter(
    "repro_pool_retries_total",
    "Pool job retries, labelled by failure kind.")

# An exposition reads "no pool" (0), not a missing series, until the
# first pool is built.
_WORKERS.set(0.0)


# -- framing -------------------------------------------------------------------


def _write_frame(fd: int, payload: bytes) -> None:
    data = _HEADER.pack(len(payload)) + payload
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exactly(fd: int, count: int) -> Optional[bytes]:
    """``count`` bytes from ``fd``, or None on EOF at a frame boundary.
    EOF mid-frame raises — a truncated frame is corruption, not a
    clean close."""
    chunks = []
    remaining = count
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise EOFError("pipe closed mid-frame (%d of %d bytes short)"
                           % (remaining, count))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int) -> Optional[bytes]:
    header = _read_exactly(fd, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length == 0:
        return b""
    body = _read_exactly(fd, length)
    if body is None:
        raise EOFError("pipe closed between frame header and body")
    return body


# -- worker side ---------------------------------------------------------------


def _run_job(job, cache, plan, key, attempt, profile):
    faults.set_current_attempt(attempt)
    poisoned = faults.perturb(plan, key, attempt)
    if poisoned is not None:
        return poisoned
    if profile is None:
        return job.run_in_worker(cache)
    from repro.obs import profile as obs_profile

    return obs_profile.call_profiled(lambda: job.run_in_worker(cache),
                                     interval=profile)


def _worker_main(recv_fd: int, send_fd: int, cache: Dict[str, Any]) -> None:
    """Long-lived worker loop: read frames until shutdown/EOF.
    ``cache`` holds the tables the worker was forked with."""
    faults.mark_child_process()
    # Keep the collector off the heap inherited from the driver: a full
    # collection would walk all of it and copy every page on write.
    gc.freeze()
    # The worker was forked from the driver and may have inherited an
    # ambient trace span; partition spans must be detached, never
    # children of a stale driver-side tree.
    from repro.obs import trace as obs_trace
    obs_trace._ACTIVE.set(None)

    while True:
        try:
            frame = _read_frame(recv_fd)
        except EOFError:
            os._exit(0)
        if frame is None:
            os._exit(0)
        try:
            kind, payload = pickle.loads(frame)
        except Exception as exc:
            # A request that will not decode: reply with a classified
            # error so the driver sees a typed failure, not a hang.
            reply = ("error", faults.error_payload(
                faults.CORRUPT_PAYLOAD,
                "worker could not decode request frame: %s" % exc))
            _write_frame(send_fd, pickle.dumps(
                reply, protocol=pickle.HIGHEST_PROTOCOL))
            continue
        if kind == "shutdown":
            os._exit(0)
        if kind == "store":
            digest, table = payload
            cache[digest] = table
            continue
        if kind == "drop":
            cache.pop(payload, None)
            continue
        # kind == "run"
        job, plan, key, attempt, profile = payload
        try:
            reply = ("ok", _run_job(job, cache, plan, key, attempt,
                                    profile))
        except faults.JobFailed as exc:
            reply = ("error", faults.error_payload(exc.kind, str(exc)))
        except BaseException as exc:  # ship it home, never die silently
            reply = ("exc", exc)
        try:
            encoded = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            tag, value = reply
            if tag == "ok":
                payload = faults.error_payload(
                    faults.CORRUPT_PAYLOAD,
                    "pool reply for %r will not pickle: %s" % (key, exc))
            else:
                payload = faults.error_payload(
                    faults.PERMANENT,
                    "%s: %s (exception did not pickle: %s)"
                    % (type(value).__name__, value, exc))
            encoded = pickle.dumps(("error", payload),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        _write_frame(send_fd, encoded)


# -- driver side ---------------------------------------------------------------


class _PoolWorker:
    """One live worker process plus the driver's view of its cache."""

    def __init__(self, context, preload: Mapping[str, Any]) -> None:
        job_read, job_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            self.process = context.Process(
                target=_worker_main,
                args=(job_read, result_write, dict(preload)), daemon=True)
            self.process.start()
        except BaseException:
            for fd in (job_read, job_write, result_read, result_write):
                try:
                    os.close(fd)
                except OSError:
                    pass
            raise
        os.close(job_read)
        os.close(result_write)
        self.send_fd = job_write
        self.recv_fd = result_read
        #: digests this worker caches, in LRU order (oldest first).
        self.cached: "OrderedDict[str, None]" = OrderedDict.fromkeys(preload)

    def send(self, kind: str, payload: Any) -> None:
        _write_frame(self.send_fd, pickle.dumps(
            (kind, payload), protocol=pickle.HIGHEST_PROTOCOL))

    def stop(self, graceful: bool) -> None:
        """Reap the worker, escalating until it is gone: the shutdown
        frame (when ``graceful``), then SIGTERM, then SIGKILL.  A worker
        that ignores SIGTERM must not outlive :meth:`WorkerPool.close`:
        multiprocessing's exit hook would join it without a timeout."""
        if graceful:
            try:
                self.send("shutdown", None)
            except OSError:
                pass
        for fd in (self.send_fd, self.recv_fd):
            try:
                os.close(fd)
            except OSError:
                pass
        if graceful:
            self.process.join(_JOIN_GRACE)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_JOIN_GRACE)
            if self.process.is_alive():
                self.process.kill()
        self.process.join()


class Finished(NamedTuple):
    """One job's final outcome, as :meth:`WorkerPool.stream` yields it."""

    index: int
    value: Any = None
    #: the final failure (classify with
    #: :func:`~repro.service.faults.classify_exception`); None on success.
    error: Optional[BaseException] = None
    #: the attempt number the job ended on (0 = never started).
    attempts: int = 0
    #: wall time of the last attempt.
    seconds: float = 0.0


class WorkerPool:
    """A fixed-size pool of forked, long-lived workers.

    :meth:`stream` is the one dispatch loop; :meth:`run_jobs` is its
    raising form for partition queries.  Jobs are dispatched
    longest-estimate-first (``job.est``), so on a busy pool the heavy
    partitions start earliest; ``run_jobs`` slots results back by job
    index, which is what keeps pool output order-pinned to serial.
    """

    def __init__(self, size: Optional[int] = None,
                 retry: Optional[faults.RetryPolicy] = None,
                 cache_tables_per_worker: int = CACHE_TABLES_PER_WORKER):
        if size is None:
            from repro.sql.plan.parallel import usable_cores
            size = max(1, usable_cores())
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.retry = retry if retry is not None else faults.RetryPolicy()
        self.cache_tables_per_worker = cache_tables_per_worker
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise faults.SubstrateUnavailable(
                "no fork on this platform: %s" % exc)
        self._workers: List[_PoolWorker] = []
        self.closed = False
        #: held by :meth:`run_jobs` for its whole dispatch.
        self._dispatching = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, preload: Mapping[str, Any]) -> _PoolWorker:
        try:
            worker = _PoolWorker(self._context, preload)
        except Exception as exc:
            raise faults.SubstrateUnavailable(
                "cannot spawn pool worker: %s" % exc)
        self._workers.append(worker)
        self._publish()
        return worker

    def _publish(self) -> None:
        # ``repro_pool_workers`` is the process-wide query pool's gauge;
        # a scheduler's per-run pool leaves it alone.
        if self is _POOL:
            _WORKERS.set(float(len(self._workers)))

    def ensure_workers(self,
                       preload: Optional[Mapping[str, Any]] = None) -> None:
        """Bring the pool up to ``size`` live workers; new workers are
        forked holding the ``preload`` tables (digest -> Table)."""
        if self.closed:
            raise faults.SubstrateUnavailable("worker pool is closed")
        while len(self._workers) < self.size:
            self._spawn(preload or {})

    def _scrap(self, worker: _PoolWorker) -> None:
        """Kill a worker whose pipe state is unknown and drop it; the
        next :meth:`ensure_workers` forks its replacement."""
        worker.stop(graceful=False)
        self._workers.remove(worker)
        self._publish()

    def _replace(self, worker: _PoolWorker,
                 preload: Mapping[str, Any]) -> List[_PoolWorker]:
        """Scrap a lost worker mid-dispatch and refill the pool; returns
        the new workers ([] when forking fails: the pool runs degraded
        and the next dispatch tries again)."""
        self._scrap(worker)
        live = len(self._workers)
        try:
            self.ensure_workers(preload)
        except faults.SubstrateUnavailable:
            pass
        fresh = self._workers[live:]
        _RESPAWNS.inc(float(len(fresh)))
        return fresh

    def close(self) -> None:
        for worker in self._workers:
            worker.stop(graceful=True)
        self._workers = []
        self.closed = True
        self._publish()

    # -- dispatch ----------------------------------------------------------

    def _preload(self, jobs: Sequence[Any],
                 tables: Mapping[str, Any]) -> Dict[str, Any]:
        """The tables a worker forked for this dispatch starts with:
        every digest the jobs read, up to the cache bound."""
        digests = dict.fromkeys(digest for job in jobs
                                for digest in job.digest_map.values())
        return {digest: tables[digest] for digest in
                list(digests)[:self.cache_tables_per_worker]}

    def _ship_tables(self, worker: _PoolWorker, job: Any,
                     tables: Mapping[str, Any]) -> None:
        needed = job.digest_map.values()
        for digest in needed:
            if digest in worker.cached:
                worker.cached.move_to_end(digest)
                _CACHE_HITS.inc()
                continue
            table = tables[digest]
            _CACHE_MISSES.inc()
            _ROWS_SHIPPED.inc(float(len(table.rows)))
            worker.send("store", (digest, table))
            worker.cached[digest] = None
        excess = len(worker.cached) - self.cache_tables_per_worker
        if excess > 0:
            for digest in [d for d in worker.cached
                           if d not in needed][:excess]:
                del worker.cached[digest]
                worker.send("drop", digest)

    def _collect(self, worker: _PoolWorker) -> tuple:
        """One reply from ``worker`` as ``(tag, value)``: ``("ok",
        result)``, ``("exc", exception)``, ``("error", fault)`` for a
        classified failure, or ``("lost", WorkerCrash)`` when the worker
        died."""
        try:
            frame = _read_frame(worker.recv_fd)
        except (EOFError, OSError) as exc:
            return "lost", faults.WorkerCrash(
                "pool worker died mid-reply: %s" % exc)
        if frame is None:
            worker.process.join(0.5)
            code = worker.process.exitcode
            return "lost", faults.WorkerCrash(
                "pool worker died before replying%s"
                % ("" if code is None else " (exit code %s)" % code))
        try:
            tag, value = pickle.loads(frame)
        except Exception as exc:
            return "error", faults.CorruptPayload(
                "pool reply would not decode: %s" % exc)
        if tag == "error":
            return tag, faults.fault_from_payload(value)
        return tag, value

    # -- the dispatch loop -------------------------------------------------

    def stream(self, jobs: Sequence[Any],
               tables: Optional[Mapping[str, Any]] = None, deadline=None,
               plan=None, attempt: int = 1,
               job_timeout: Optional[float] = None,
               profile: Optional[float] = None) -> Iterator[Finished]:
        """Run ``jobs`` on the pool, yielding each one's
        :class:`Finished` as it happens (completion order).

        ``tables`` maps content digest -> Table for everything any
        job's ``digest_map`` references.  ``plan``/``attempt`` carry
        the installed fault plan and the first attempt number into the
        workers; ``profile`` is the driver's sampling interval when it
        is profiling.  Failures retry under :attr:`retry` as the module
        docstring describes; at ``deadline`` expiry every unfinished
        job finishes with :class:`~repro.service.faults.
        DeadlineExceeded`.  An early close scraps the busy workers, so
        the next dispatch starts frame-aligned.
        """
        jobs = list(jobs)
        if not jobs:
            return
        tables = tables or {}
        preload = self._preload(jobs, tables)
        self.ensure_workers(preload)
        # Longest estimate first; ties break on job index so dispatch
        # order is deterministic.  ``pending`` is popped from the end.
        pending = sorted(range(len(jobs)),
                         key=lambda i: (-(jobs[i].est or 0), i),
                         reverse=True)
        tries = [0] * len(jobs)
        delayed: List[tuple] = []           # (ready_at, index) backoffs
        idle = list(self._workers)
        busy: Dict[_PoolWorker, tuple] = {}  # worker -> (index, started)
        unfinished = len(jobs)
        try:
            while unfinished:
                now = time.perf_counter()
                if deadline is not None and deadline.expired():
                    stuck = list(busy.items())
                    busy.clear()
                    for worker, _ in stuck:
                        self._scrap(worker)
                    for _, (index, started) in stuck:
                        yield Finished(
                            index, error=faults.DeadlineExceeded(
                                "deadline exceeded while running"),
                            attempts=attempt - 1 + tries[index],
                            seconds=now - started)
                    for index in pending + [i for _, i in delayed]:
                        yield Finished(
                            index, error=faults.DeadlineExceeded(
                                "deadline exceeded before start"),
                            attempts=attempt - 1 + tries[index])
                    return
                due = sorted((e for e in delayed if e[0] <= now),
                             reverse=True)
                if due:
                    delayed = [e for e in delayed if e[0] > now]
                    pending.extend(index for _, index in due)
                while pending and idle:
                    worker = idle.pop(0)
                    index = pending.pop()
                    try:
                        self._ship_tables(worker, jobs[index], tables)
                        worker.send("run", (
                            jobs[index], plan, "part:%d" % jobs[index].part,
                            attempt + tries[index], profile))
                    except OSError:
                        # The worker died while idle (a broken pipe):
                        # replace it and put the job back at the front
                        # of the queue without spending an attempt.
                        pending.append(index)
                        idle.extend(self._replace(worker, preload))
                        continue
                    except (pickle.PicklingError, AttributeError,
                            TypeError) as exc:
                        self._scrap(worker)
                        raise faults.SubstrateUnavailable(
                            "pool dispatch for job %d failed: %s"
                            % (index, exc))
                    tries[index] += 1
                    _DISPATCHES.inc()
                    busy[worker] = (index, time.perf_counter())
                bounds = [ready - now for ready, _ in delayed]
                if deadline is not None:
                    bounds.append(deadline.remaining())
                if job_timeout is not None:
                    bounds.extend(started + job_timeout - now
                                  for _, started in busy.values())
                timeout = max(0.0, min(bounds)) if bounds else None
                if not busy:
                    if not delayed:
                        # Only reachable when jobs remain but every
                        # worker died and could not be respawned.
                        raise faults.SubstrateUnavailable(
                            "no live pool workers for %d pending jobs"
                            % len(pending))
                    time.sleep(timeout)
                    continue
                by_fd = {worker.recv_fd: worker for worker in busy}
                readable, _, _ = select.select(list(by_fd), [], [], timeout)
                now = time.perf_counter()
                replied = [by_fd[fd] for fd in readable]
                overdue = [worker for worker, (_, started) in busy.items()
                           if job_timeout is not None and worker not in
                           replied and now - started > job_timeout]
                for worker in replied + overdue:
                    index, started = busy.pop(worker)
                    if worker in overdue:
                        tag, value = "lost", faults.TaskTimeout(
                            "timeout after %.3gs" % job_timeout)
                    else:
                        tag, value = self._collect(worker)
                    if tag == "lost":       # dead or hung: replace it
                        idle.extend(self._replace(worker, preload))
                    else:
                        # A full frame was read: the worker is healthy
                        # even when the payload was poison.  Reuse it.
                        idle.append(worker)
                    kind = faults.classify_exception(value)
                    if tag in ("lost", "error") \
                            and self.retry.allows_retry(kind, tries[index]) \
                            and (deadline is None or not deadline.expired()):
                        _RETRIES.inc(kind=kind)
                        delayed.append((now + self.retry.backoff(
                            tries[index]), index))
                        continue
                    # A plain exception ("exc") is final at once.
                    unfinished -= 1
                    yield Finished(index,
                                   value=value if tag == "ok" else None,
                                   error=None if tag == "ok" else value,
                                   attempts=attempt - 1 + tries[index],
                                   seconds=now - started)
        finally:
            # An early exit leaves replies queued on the busy workers'
            # pipes; scrap them so the next dispatch starts aligned.
            for worker in busy:
                self._scrap(worker)

    def run_jobs(self, jobs: Sequence[Any], tables: Mapping[str, Any],
                 deadline=None, plan=None, attempt: int = 1) -> List[Any]:
        """Execute ``jobs`` on the pool; results in job order.

        Raises the first final failure: the typed substrate fault when
        the retry budget is exhausted (tagged with the ``attempts`` it
        reached, so the degradation ladder numbers the next rung after
        it), application exceptions unchanged, and
        :class:`~repro.service.faults.DeadlineExceeded` on expiry, also
        while waiting for another thread's call on this pool to end.
        When a profiler is installed, each job runs under a child
        profiler and its samples are merged into the driver's.
        """
        from repro.obs import profile as obs_profile

        wait = -1 if deadline is None else deadline.remaining()
        if not self._dispatching.acquire(timeout=wait):
            raise faults.DeadlineExceeded(
                "deadline expired waiting for the worker pool")
        profiler = obs_profile.installed()
        interval = None if profiler is None else profiler.interval_seconds
        results: List[Any] = [None] * len(jobs)
        try:
            with contextlib.closing(self.stream(
                    jobs, tables, deadline=deadline, plan=plan,
                    attempt=attempt, profile=interval)) as finished:
                for done in finished:
                    if done.error is not None:
                        if isinstance(done.error, faults.TaskFault):
                            done.error.attempts = done.attempts
                        raise done.error
                    results[done.index] = done.value
        finally:
            self._dispatching.release()
        if interval is None:
            return results
        return obs_profile.absorb_shipped(results)


# -- process-wide pool ---------------------------------------------------------

_POOL: Optional[WorkerPool] = None
#: guards ``_POOL``, so threads racing to the first query share one pool.
_POOL_LOCK = threading.Lock()


def get_pool() -> WorkerPool:
    """The process-wide pool, created (sized to
    :func:`~repro.sql.plan.parallel.usable_cores`) on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL.closed:
            _POOL = WorkerPool()
        return _POOL


def reset_pool() -> None:
    """Shut the process-wide pool down (tests; re-created on demand)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            with _POOL._dispatching:    # let a running dispatch end
                _POOL.close()
            _POOL = None
