"""A sampling profiler that attributes stack samples to trace spans.

The third observability vocabulary, next to spans ("where did the time
go, per operator") and metrics ("what has this process done"): *which
Python frames burned the time, under which span*.  A daemon thread
wakes every ``interval_seconds``, walks :func:`sys._current_frames`
for every thread but itself, and records each stack twice over —

* as a collapsed call chain (root-first, ``;``-joined — the flamegraph
  collapsed-stack format, one ``stack count`` line per distinct chain
  in :meth:`Profiler.collapsed`), and
* against the **span label** active on the sampled thread.  Labels use
  the span's ``op`` tag when present (the operator description — see
  ``PhysicalOp.describe``) and the span name otherwise.

The contract is the repo-wide one: **off by default, free when off.**
Nothing samples, and no span bookkeeping runs, until a profiler is
started; the only standing cost is one module-global read at span
boundaries (:data:`repro.obs.trace._PROFILE_HOOK`), and spans
themselves only exist while tracing is on.  Sample *counts* are
statistical, but the set of spans entered while profiling
(:attr:`Profiler.spans_seen`) is deterministic for a deterministic
run — that is what the masked golden tests compare
(:func:`format_summary` with ``mask_counts=True``).

**Other processes.**  A sampler thread does not survive ``fork``, and
nothing samples the scheduler's pool workers: ``repro-qbs run
--profile`` attributes a whole run only with ``--workers 1``.  A
profiler started in a forked child replaces the stale one it inherited
(whose ``pid`` no longer matches); :meth:`Profiler.payload` and
:meth:`Profiler.absorb` carry samples between profilers as plain data.

Surfaces: ``Database.execute(sql, profile=...)``, ``repro-qbs run
--profile out.txt``, and ``Synthesizer.synthesize(profiler=...)`` for
end-to-end Fig. 13 runs.  See ``docs/observability.md``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import trace as obs_trace

#: JSON summary schema identifier.
PROFILE_SCHEMA = "repro-profile/v1"

#: span label for samples taken while no span was active on a thread.
NO_SPAN = "-"

#: deepest stack recorded per sample; frames below are dropped.
MAX_STACK_DEPTH = 128

#: the process-wide installed profiler (at most one), or None.
_INSTALLED: Optional["Profiler"] = None


def installed() -> Optional["Profiler"]:
    """The active profiler, or None — one module-global read."""
    return _INSTALLED


class Profiler:
    """Daemon-thread wall-clock sampler with span attribution.

    ``samples`` maps ``(span_label, collapsed_stack)`` to a hit count;
    ``spans_seen`` is the deterministic universe of span labels entered
    while sampling was active.  Start/stop explicitly, or use
    :meth:`sampling` as a context manager (it is reentrancy-safe: if
    the profiler is already running it leaves start/stop alone, so one
    profiler can accumulate across many queries).
    """

    def __init__(self, interval_seconds: float = 0.005):
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be > 0: %r"
                             % interval_seconds)
        self.interval_seconds = interval_seconds
        self.samples: Dict[Tuple[str, str], int] = {}
        self.spans_seen = set()
        self.sample_count = 0
        self.duration_seconds = 0.0
        self.pid = os.getpid()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_at: Optional[float] = None
        #: the interpreter's switch interval before ``start`` lowered it.
        self._switch_interval: Optional[float] = None
        # span-label stack per thread ident, maintained by _on_span
        # (called from the owning thread) and read by the sampler.
        self._span_stacks: Dict[int, List[str]] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._thread is not None

    def start(self) -> "Profiler":
        """Install as the process profiler and start sampling.

        Replaces a *stale* installed profiler (one inherited across
        ``fork``, whose pid no longer matches) silently; a second live
        profiler in the same process is a programming error.

        While sampling, the interpreter's switch interval is at most a
        tenth of ``interval_seconds``, so the sampler thread gets the
        interpreter lock within a short query; ``stop`` restores it.
        """
        global _INSTALLED
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        current = _INSTALLED
        if current is not None and current is not self \
                and current.pid == os.getpid():
            raise RuntimeError("another profiler is already installed")
        self.pid = os.getpid()
        self._stop.clear()
        _INSTALLED = self
        obs_trace.set_profile_hook(self._on_span)
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(min(self._switch_interval,
                                  self.interval_seconds / 10))
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "Profiler":
        """Stop sampling and uninstall (idempotent)."""
        global _INSTALLED
        thread = self._thread
        if thread is None:
            return self
        if _INSTALLED is self:
            obs_trace.set_profile_hook(None)
            _INSTALLED = None
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        sys.setswitchinterval(self._switch_interval)
        if self._started_at is not None:
            self.duration_seconds += time.perf_counter() - self._started_at
            self._started_at = None
        return self

    @contextmanager
    def sampling(self) -> Iterator["Profiler"]:
        """``with prof.sampling():`` — start unless already running."""
        if self.active:
            yield self
            return
        self.start()
        try:
            yield self
        finally:
            self.stop()

    # -- the sampler -------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self._sample_once()

    def _sample_once(self) -> None:
        own = threading.get_ident()
        for tid, frame in sys._current_frames().items():
            if tid == own:
                continue
            stack = self._collapse(frame)
            if not stack:
                continue
            labels = self._span_stacks.get(tid)
            label = labels[-1] if labels else NO_SPAN
            key = (label, stack)
            self.samples[key] = self.samples.get(key, 0) + 1
            self.sample_count += 1

    @staticmethod
    def _frame_label(frame) -> str:
        code = frame.f_code
        base = os.path.basename(code.co_filename)
        if base.endswith(".py"):
            base = base[:-3]
        return "%s:%s" % (base, code.co_name)

    @classmethod
    def _collapse(cls, frame) -> str:
        chain: List[str] = []
        while frame is not None and len(chain) < MAX_STACK_DEPTH:
            chain.append(cls._frame_label(frame))
            frame = frame.f_back
        chain.reverse()  # root first, the collapsed-stack convention
        return ";".join(chain)

    # -- span attribution (called via the trace-module hook) --------------

    @staticmethod
    def span_label(span) -> str:
        """The attribution label: the ``op`` tag when the span carries
        one, the span name otherwise."""
        return span.tags.get("op") or span.name

    def _on_span(self, span, entered: bool) -> None:
        label = self.span_label(span)
        tid = threading.get_ident()
        if entered:
            self.spans_seen.add(label)
            self._span_stacks.setdefault(tid, []).append(label)
        else:
            stack = self._span_stacks.get(tid)
            if stack:
                stack.pop()
                if not stack:
                    self._span_stacks.pop(tid, None)

    # -- cross-process transport -------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """Plain-data (picklable) form for shipping samples home from a
        forked worker, merged with :meth:`absorb` on the driver side."""
        return {
            "schema": PROFILE_SCHEMA,
            "samples": [[label, stack, count] for (label, stack), count
                        in sorted(self.samples.items())],
            "spans_seen": sorted(self.spans_seen),
            "sample_count": self.sample_count,
            "duration_seconds": self.duration_seconds,
        }

    def absorb(self, payload: Dict[str, Any]) -> None:
        """Merge a shipped :meth:`payload` into this profiler."""
        for label, stack, count in payload.get("samples", ()):
            key = (label, stack)
            self.samples[key] = self.samples.get(key, 0) + count
        self.spans_seen.update(payload.get("spans_seen", ()))
        self.sample_count += payload.get("sample_count", 0)

    # -- reports -----------------------------------------------------------

    def collapsed(self) -> str:
        """Flamegraph collapsed-stack text: one ``stack count`` line
        per distinct chain, the span label as the root frame, sorted
        for determinism."""
        lines = ["%s;%s %d" % (label, stack, count)
                 for (label, stack), count in sorted(self.samples.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def summary(self) -> Dict[str, Any]:
        """JSON summary: totals, per-span sample counts, hottest
        leaf functions, and the deterministic span universe."""
        by_span: Dict[str, int] = {}
        by_function: Dict[str, int] = {}
        for (label, stack), count in self.samples.items():
            by_span[label] = by_span.get(label, 0) + count
            leaf = stack.rsplit(";", 1)[-1]
            by_function[leaf] = by_function.get(leaf, 0) + count
        top = sorted(by_function.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "schema": PROFILE_SCHEMA,
            "interval_seconds": self.interval_seconds,
            "samples_total": self.sample_count,
            "duration_seconds": round(self.duration_seconds, 6),
            "spans_seen": sorted(self.spans_seen),
            "by_span": {label: by_span[label] for label in sorted(by_span)},
            "top_functions": [[name, count] for name, count in top[:20]],
        }

    @property
    def samples_total(self) -> int:
        return self.sample_count

    def __repr__(self) -> str:
        return "Profiler(interval=%gs, samples=%d, spans=%d%s)" % (
            self.interval_seconds, self.sample_count, len(self.spans_seen),
            ", active" if self.active else "")


def format_summary(summary: Dict[str, Any], mask_counts: bool = False) -> str:
    """Render a :meth:`Profiler.summary` as deterministic-friendly text.

    With ``mask_counts=True`` every count prints as ``*`` and only the
    deterministic ``spans_seen`` universe is listed (which spans got
    hit, and how often, is statistical; which spans were *entered* is
    not) — the form the golden tests and doctests compare.
    """
    lines = ["profile  samples=%s"
             % ("*" if mask_counts else summary["samples_total"])]
    by_span = summary.get("by_span", {})
    labels = sorted(summary.get("spans_seen", ())) if mask_counts \
        else sorted(set(by_span) | set(summary.get("spans_seen", ())))
    for label in labels:
        lines.append("span %s  samples=%s"
                     % (label, "*" if mask_counts
                        else by_span.get(label, 0)))
    if not mask_counts:
        for name, count in summary.get("top_functions", ())[:5]:
            lines.append("top %s  samples=%d" % (name, count))
    return "\n".join(lines)
