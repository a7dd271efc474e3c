"""Hierarchical trace spans, carried on a contextvar.

The tracing contract mirrors the repo's mode-flag invariant: **off by
default, zero overhead when off**.  Code that wants to be traceable
calls :func:`span`; when no trace is active the call returns the
shared :data:`NULL_SPAN` singleton — one contextvar read, no
allocation, no timing — and every method on it is a no-op.  When a
root span has been activated (``with Span("query"): ...`` or via
``Database.execute(..., trace=True)``), :func:`span` attaches a child
to the ambient span, and entering it pushes it onto the context so
nested calls — including re-entrant executor calls for subqueries —
parent correctly without any explicit plumbing.

Timings use :func:`time.perf_counter` (monotonic); tag values must be
JSON-serializable.  Spans serialize with :meth:`Span.to_dict` /
:meth:`Span.from_dict` (``repro-qbs run --trace`` writes the
``to_dict`` form).
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: the active span for the current logical context (thread / task).
_ACTIVE: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span",
                                                  default=None)

#: the sampling profiler's span-boundary callback
#: (:mod:`repro.obs.profile`), or None when no profiler is installed.
#: Called as ``hook(span, entered)`` on every span enter/exit so the
#: profiler can attribute stack samples to the span active on each
#: thread.  One module-global read per span boundary — and spans only
#: exist when tracing is on, so the untraced path is untouched.
_PROFILE_HOOK: Optional[Callable[["Span", bool], None]] = None


def set_profile_hook(hook: Optional[Callable[["Span", bool], None]]) -> None:
    """Install (or, with None, remove) the profiler's span callback."""
    global _PROFILE_HOOK
    _PROFILE_HOOK = hook


#: ``current_span()`` is the ambient span, or None when tracing is off.
#: It is the contextvar's own ``get``, a C call, so code on the untraced
#: path (each query, each operator entry point) pays no Python frame.
current_span: Callable[[], Optional["Span"]] = _ACTIVE.get


def enabled() -> bool:
    """True when a trace is active in this context."""
    return _ACTIVE.get() is not None


class Span:
    """One timed node in a trace tree.

    A ``Span`` is a context manager: entering starts the clock and
    makes it the ambient span; exiting stops the clock and restores
    the previous ambient span.  Children are created with
    :meth:`child` (usually via the module-level :func:`span` helper)
    and appended in creation order, which keeps tree shape
    deterministic for a deterministic execution.
    """

    __slots__ = ("name", "tags", "children", "elapsed_seconds",
                 "_start", "_token")

    def __init__(self, name: str, **tags: Any):
        self.name = name
        self.tags: Dict[str, Any] = dict(tags)
        self.children: List[Span] = []
        self.elapsed_seconds: Optional[float] = None
        self._start: Optional[float] = None
        self._token = None

    # -- construction ------------------------------------------------------

    def child(self, name: str, **tags: Any) -> "Span":
        """Create (but do not start) a child span."""
        node = Span(name, **tags)
        self.children.append(node)
        return node

    # -- mutation ----------------------------------------------------------

    def tag(self, **tags: Any) -> "Span":
        self.tags.update(tags)
        return self

    def finish(self, elapsed_seconds: float) -> "Span":
        """Close a span whose duration was measured externally.

        Used for work timed by another component (e.g. the scheduler
        already measures per-job wall clock), where re-timing would
        disagree with the authoritative number.
        """
        self.elapsed_seconds = elapsed_seconds
        return self

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        self._token = _ACTIVE.set(self)
        if _PROFILE_HOOK is not None:
            _PROFILE_HOOK(self, True)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        elapsed = time.perf_counter() - (self._start or 0.0)
        # A span can be re-entered (e.g. an operator called once per
        # batch); accumulate rather than overwrite.
        self.elapsed_seconds = (self.elapsed_seconds or 0.0) + elapsed
        if _PROFILE_HOOK is not None:
            _PROFILE_HOOK(self, False)
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        return False

    def __bool__(self) -> bool:
        return True

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "tags": dict(self.tags),
            "elapsed_seconds": self.elapsed_seconds,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        node = cls(str(payload.get("name", "")))
        node.tags = dict(payload.get("tags") or {})
        node.elapsed_seconds = payload.get("elapsed_seconds")
        node.children = [cls.from_dict(c)
                         for c in payload.get("children") or []]
        return node

    # -- inspection --------------------------------------------------------

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Yield ``(depth, span)`` pairs in pre-order."""
        yield depth, self
        for c in self.children:
            for pair in c.walk(depth + 1):
                yield pair

    def __repr__(self) -> str:
        return "Span(%r, tags=%r, children=%d)" % (
            self.name, self.tags, len(self.children))


class _NullSpan:
    """The disabled-tracing stand-in: falsy, every method a no-op.

    Shared singleton — :func:`span` returns it without allocating, so
    traceable code paths cost one contextvar read when tracing is off.
    """

    __slots__ = ()

    def child(self, name: str, **tags: Any) -> "_NullSpan":
        return self

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def finish(self, elapsed_seconds: float) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: shared no-op span; ``bool(NULL_SPAN)`` is False.
NULL_SPAN = _NullSpan()


def span(name: str, **tags: Any) -> Any:
    """A child of the ambient span, or :data:`NULL_SPAN` when off.

    The returned object is a context manager either way, so call
    sites are a single ``with`` statement with no enabled-check.
    """
    parent = _ACTIVE.get()
    if parent is None:
        return NULL_SPAN
    return parent.child(name, **tags)


def format_tree(root: Span, timing: bool = False) -> str:
    """A deterministic indented rendering of a span tree.

    Tags print sorted by key; timings are excluded unless ``timing``
    is set (they are the only nondeterministic field, so the default
    rendering is directly comparable in golden tests and doctests).
    """
    lines = []
    for depth, node in root.walk():
        bits = ["%s=%s" % (k, node.tags[k]) for k in sorted(node.tags)]
        if timing and node.elapsed_seconds is not None:
            bits.append("time=%.3fms" % (node.elapsed_seconds * 1000.0))
        suffix = ("  [%s]" % ", ".join(bits)) if bits else ""
        lines.append("%s%s%s" % ("  " * depth, node.name, suffix))
    return "\n".join(lines)
