"""Async facade over the scheduler: ``submit`` / ``gather`` / ``stream``.

The scheduler is synchronous (its workers are processes, not
coroutines); this facade gives event-loop callers a stable API so
future serving work — an HTTP front, a job queue consumer — can be
written against coroutines now and keep working if the execution
engine underneath changes.

The blocking run is pushed onto a thread-pool executor; ``stream``
pumps outcomes through an :class:`asyncio.Queue` so consumers see each
job as it completes instead of waiting for the batch.

Usage::

    service = QBSService(workers=4, cache=ResultCache(path))
    await service.submit("w46")
    await service.submit("i2")
    async for outcome in service.stream():
        ...

or, batch-style::

    outcomes = await service.run(["w46", "i2", "adv_hash"])
"""

from __future__ import annotations

import asyncio
import threading
from typing import AsyncIterator, List, Optional

from repro.core.qbs import QBSOptions
from repro.corpus.registry import CorpusFragment, fragment_by_id
from repro.service.cache import ResultCache
from repro.service.faults import RetryPolicy
from repro.service.jobs import QBSJob, job_for
from repro.service.scheduler import JobOutcome, RunReport, Scheduler

_SENTINEL = object()


class QBSService:
    """Coroutine API over the corpus pipeline."""

    def __init__(self, workers: int = 1,
                 job_timeout: Optional[float] = None,
                 cache: Optional[ResultCache] = None,
                 options: Optional[QBSOptions] = None,
                 refresh: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 deadline: Optional[float] = None):
        self.scheduler = Scheduler(workers=workers, job_timeout=job_timeout,
                                   cache=cache, options=options,
                                   refresh=refresh, retry=retry,
                                   deadline=deadline)
        self._pending: List[CorpusFragment] = []

    # -- the facade --------------------------------------------------------

    async def submit(self, fragment_id: str) -> QBSJob:
        """Queue one fragment; returns its content-addressed job.

        Job hashing compiles the fragment's frontend form, so it runs
        off the event loop.
        """
        corpus_fragment = fragment_by_id(fragment_id)
        loop = asyncio.get_running_loop()
        job = await loop.run_in_executor(
            None, job_for, corpus_fragment, self.scheduler.options)
        self._pending.append(corpus_fragment)
        return job

    async def gather(self) -> List[JobOutcome]:
        """Run everything submitted since the last gather/stream."""
        batch = self._take_pending()
        if not batch:
            return []
        loop = asyncio.get_running_loop()
        report: RunReport = await loop.run_in_executor(
            None, self.scheduler.run, batch)
        return report.outcomes

    async def stream(self) -> AsyncIterator[JobOutcome]:
        """Yield pending outcomes one by one, in submission order.

        Abandoning the stream (breaking out of ``async for``, or
        cancellation) stops the underlying run instead of computing
        the rest of the batch for nobody: an inline run winds down at
        the next job boundary, a pool run at once, killing its busy
        workers.
        """
        batch = self._take_pending()
        if not batch:
            return
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        stop = threading.Event()

        def pump():
            try:
                for outcome in self.scheduler.run_iter(batch,
                                                       stop_event=stop):
                    loop.call_soon_threadsafe(queue.put_nowait, outcome)
                    if stop.is_set():
                        break
            finally:
                loop.call_soon_threadsafe(queue.put_nowait, _SENTINEL)

        pump_future = loop.run_in_executor(None, pump)
        try:
            while True:
                item = await queue.get()
                if item is _SENTINEL:
                    break
                yield item
            await pump_future  # surface pump exceptions
        finally:
            stop.set()
            await asyncio.shield(pump_future)

    async def run(self, fragment_ids: List[str]) -> List[JobOutcome]:
        """Convenience: submit a batch of ids and gather it."""
        for fragment_id in fragment_ids:
            await self.submit(fragment_id)
        return await self.gather()

    # -- internals ---------------------------------------------------------

    def _take_pending(self) -> List[CorpusFragment]:
        batch, self._pending = self._pending, []
        return batch
