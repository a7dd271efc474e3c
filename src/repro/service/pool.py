"""The worker-process substrate: forked workers, one dispatch loop.

Everything in this repo that runs work in another process runs it
here: QBS corpus batches (``Scheduler(workers>1)``, ``repro-qbs run
--workers``), on a pool the scheduler forks per run and closes at its
end.  A :class:`WorkerPool` is a fixed set of forked workers, each
speaking a length-prefixed pickle protocol over a dedicated pipe pair.

**Wire protocol.**  Every frame is a 4-byte big-endian length followed
by a pickle of ``(kind, payload)``:

* ``("run", (job, attempt))`` — parent → worker: call ``job()``, a
  picklable zero-argument callable, with ``attempt`` published as
  :func:`repro.service.faults.current_attempt`.  Exactly one reply
  frame: ``("ok", result)``, ``("exc", exception)`` or ``("error",
  payload)`` (:func:`repro.service.faults.error_payload`: a failure the
  job classified itself, or a reply that will not pickle).
* ``("shutdown", None)`` — parent → worker: exit cleanly.

**Faults.**  :meth:`WorkerPool.stream` is the one dispatch loop.  A
worker that dies mid-job (pipe EOF) or runs past the per-job timeout
is killed and replaced, and the job retried under the pool's
:class:`~repro.service.faults.RetryPolicy`; a worker found dead at
dispatch (a broken pipe) is replaced and its job goes back to the
front of the queue without spending an attempt; a reply that will not
decode retries without a respawn (the worker finished the frame — it
is healthy); a failure the job classified itself retries by its kind.
A job's plain exception is final at once, and so is every unfinished
job when the deadline expires.  Each final outcome comes back as a
:class:`Finished`; the scheduler records a failure as a classified
``JobOutcome`` and carries on.

A dispatch owns every worker's pipes until it ends, so a pool serves
one :meth:`~WorkerPool.stream` at a time.  Everything here is
stdlib-only.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import select
import struct
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.service import faults

#: grace given at each shutdown escalation step (shutdown frame,
#: SIGTERM) before moving on to the next; SIGKILL ends the ladder.
_JOIN_GRACE = 5.0

_HEADER = struct.Struct(">I")

_DISPATCHES = obs_metrics.counter(
    "repro_pool_dispatches_total",
    "Jobs dispatched to pool workers.")
_RESPAWNS = obs_metrics.counter(
    "repro_pool_respawns_total",
    "Pool workers respawned after dying or timing out mid-job.")
_RETRIES = obs_metrics.counter(
    "repro_pool_retries_total",
    "Pool job retries, labelled by failure kind.")


def usable_cores() -> int:
    """CPU cores this process may actually run on.

    The scheduling affinity mask when the platform exposes it (CI
    containers often restrict it below ``os.cpu_count()``), the core
    count otherwise.  It sizes a pool by default and decides where the
    scheduler benchmark asserts its speedup floor.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


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


def _worker_main(recv_fd: int, send_fd: int) -> None:
    """Long-lived worker loop: read frames until shutdown/EOF."""
    faults.mark_child_process()
    # Keep the collector off the heap inherited from the parent: a full
    # collection would walk all of it and copy every page on write.
    gc.freeze()
    # The worker was forked from the parent and may have inherited an
    # ambient trace span; a job's spans must not attach to that stale
    # copy of the parent's tree.
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
            # error so the parent sees a typed failure, not a hang.
            reply = ("error", faults.error_payload(
                faults.CORRUPT_PAYLOAD,
                "worker could not decode request frame: %s" % exc))
            _write_frame(send_fd, pickle.dumps(
                reply, protocol=pickle.HIGHEST_PROTOCOL))
            continue
        if kind == "shutdown":
            os._exit(0)
        # kind == "run"
        job, attempt = payload
        faults.set_current_attempt(attempt)
        try:
            reply = ("ok", job())
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
                    "pool reply will not pickle: %s" % exc)
            else:
                payload = faults.error_payload(
                    faults.PERMANENT,
                    "%s: %s (exception did not pickle: %s)"
                    % (type(value).__name__, value, exc))
            encoded = pickle.dumps(("error", payload),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        _write_frame(send_fd, encoded)


# -- parent side ---------------------------------------------------------------


class _PoolWorker:
    """One live worker process and the parent's ends of its pipes."""

    def __init__(self, context) -> None:
        job_read, job_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            self.process = context.Process(
                target=_worker_main, args=(job_read, result_write),
                daemon=True)
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

    ``size`` defaults to :func:`usable_cores`; ``retry`` is the policy
    :meth:`stream` retries substrate faults under.  Workers fork on
    the first :meth:`stream` (or :meth:`ensure_workers`), so they
    inherit everything the parent set up before it: an installed fault
    plan, a swapped job runner.  Construction raises
    :class:`~repro.service.faults.SubstrateUnavailable` where the
    platform has no ``fork``.
    """

    def __init__(self, size: Optional[int] = None,
                 retry: Optional[faults.RetryPolicy] = None):
        if size is None:
            size = max(1, usable_cores())
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.retry = retry if retry is not None else faults.RetryPolicy()
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise faults.SubstrateUnavailable(
                "no fork on this platform: %s" % exc)
        self._workers: List[_PoolWorker] = []
        self.closed = False

    # -- lifecycle ---------------------------------------------------------

    def ensure_workers(self) -> None:
        """Bring the pool up to ``size`` live workers.  Raises
        :class:`~repro.service.faults.SubstrateUnavailable` when the
        pool is closed or a worker cannot fork (a daemonic parent, a
        process limit)."""
        if self.closed:
            raise faults.SubstrateUnavailable("worker pool is closed")
        while len(self._workers) < self.size:
            try:
                worker = _PoolWorker(self._context)
            except Exception as exc:
                raise faults.SubstrateUnavailable(
                    "cannot spawn pool worker: %s" % exc)
            self._workers.append(worker)

    def _scrap(self, worker: _PoolWorker) -> None:
        """Kill a worker whose pipe state is unknown and drop it; the
        next :meth:`ensure_workers` forks its replacement."""
        worker.stop(graceful=False)
        self._workers.remove(worker)

    def _replace(self, worker: _PoolWorker) -> List[_PoolWorker]:
        """Scrap a lost worker mid-dispatch and refill the pool; returns
        the new workers ([] when forking fails: the pool runs short-
        handed and the next dispatch tries again)."""
        self._scrap(worker)
        live = len(self._workers)
        try:
            self.ensure_workers()
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

    # -- dispatch ----------------------------------------------------------

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

    def stream(self, jobs: Sequence[Any], deadline=None,
               job_timeout: Optional[float] = None) -> Iterator[Finished]:
        """Run ``jobs`` on the pool, yielding each one's
        :class:`Finished` as it happens (completion order).

        Jobs start in list order.  Failures retry under :attr:`retry`
        as the module docstring describes; a job running past
        ``job_timeout`` seconds is killed and retried as a timeout; at
        ``deadline`` (a :class:`~repro.service.faults.Deadline`) expiry
        every unfinished job finishes with
        :class:`~repro.service.faults.DeadlineExceeded`.  An early
        close scraps the busy workers, so the next dispatch starts
        frame-aligned.
        """
        jobs = list(jobs)
        if not jobs:
            return
        self.ensure_workers()
        pending = list(reversed(range(len(jobs))))  # popped from the end
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
                            attempts=tries[index], seconds=now - started)
                    for index in pending + [i for _, i in delayed]:
                        yield Finished(
                            index, error=faults.DeadlineExceeded(
                                "deadline exceeded before start"),
                            attempts=tries[index])
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
                        worker.send("run", (jobs[index], tries[index] + 1))
                    except OSError:
                        # The worker died while idle (a broken pipe):
                        # replace it and put the job back at the front
                        # of the queue without spending an attempt.
                        pending.append(index)
                        idle.extend(self._replace(worker))
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
                        idle.extend(self._replace(worker))
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
                                   attempts=tries[index],
                                   seconds=now - started)
        finally:
            # An early exit leaves replies queued on the busy workers'
            # pipes; scrap them so the next dispatch starts aligned.
            for worker in busy:
                self._scrap(worker)
