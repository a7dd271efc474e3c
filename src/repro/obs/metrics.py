"""A process-local metrics registry: counters, gauges, histograms.

Stdlib-only, Prometheus-flavoured: instruments are created
get-or-create by name on a :class:`MetricsRegistry`, carry optional
label sets per sample, and export two ways —

* :meth:`MetricsRegistry.exposition` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` lines),
  suitable for scraping or eyeballing;
* :meth:`MetricsRegistry.snapshot` — a plain JSON-serializable dict,
  the form embedded in ``BENCH_*.json`` artifacts and ``repro-qbs
  --json`` output.

Instrument updates are cheap dict operations and are only placed at
cold sites (per query, per job, per synthesis run — never per row or
per evaluator call), so the registry is always on; *tracing* is the
default-off half of the observability layer (see
:mod:`repro.obs.trace`).  The per-query site records through bound
series (:meth:`Counter.series`, :meth:`Histogram.series`), which
resolve their label key once.  Samples iterate sorted by label so all
output is deterministic for a deterministic run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    # Every query records one sample with no label and one with one, so
    # those two cases skip the sort.
    if not labels:
        return ()
    if len(labels) == 1:
        ((name, value),) = labels.items()
        return ((name, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape one label value per the Prometheus text exposition
    format: backslash, double-quote and newline, in that order."""
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """``# HELP`` lines escape backslash and newline only (the spec
    leaves quotes alone there)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) \
        -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join('%s="%s"' % (k, escape_label_value(v))
                    for k, v in pairs)
    return "{%s}" % body


class _Instrument:
    """Base: one named metric holding samples keyed by label set."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text

    def samples(self) -> List[Dict[str, Any]]:  # pragma: no cover
        raise NotImplementedError

    def exposition_lines(self) -> List[str]:  # pragma: no cover
        raise NotImplementedError

    def reset_values(self) -> None:
        """Drop every recorded sample, keeping the instrument itself
        (and therefore every module-level reference to it) alive."""
        self._values.clear()  # type: ignore[attr-defined]


class Counter(_Instrument):
    """A monotonically increasing total, per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = ""):
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def series(self, **labels: Any) -> "CounterSeries":
        """The samples of one label set, bound for repeated recording."""
        return CounterSeries(self, _label_key(labels))

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self.series(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def samples(self) -> List[Dict[str, Any]]:
        return [{"labels": dict(key), "value": self._values[key]}
                for key in sorted(self._values)]

    def exposition_lines(self) -> List[str]:
        return ["%s%s %s" % (self.name, _render_labels(key), _num(value))
                for key, value in sorted(self._values.items())]


class CounterSeries:
    """A counter's sample for one fixed label set, its key resolved
    once.  It records into the counter's own sample dict, which
    ``reset_values`` clears in place, so a series held across a reset
    keeps exporting."""

    __slots__ = ("_values", "_key")

    def __init__(self, counter: Counter, key: LabelKey):
        self._values = counter._values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up: %r" % amount)
        values, key = self._values, self._key
        values[key] = values.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A point-in-time value, per label set."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = ""):
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        return [{"labels": dict(key), "value": self._values[key]}
                for key in sorted(self._values)]

    def exposition_lines(self) -> List[str]:
        return ["%s%s %s" % (self.name, _render_labels(key), _num(value))
                for key, value in sorted(self._values.items())]


#: default histogram buckets — seconds, spanning sub-ms ops to
#: multi-second synthesis jobs.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0)


class Histogram(_Instrument):
    """Bucketed observations with sum and count, per label set."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        # per label set: [count per bucket..., count above the last
        # bound (NaN included), sum, count] kept as a mutable list; the
        # exports turn the bucket counts into cumulative ones.
        self._values: Dict[LabelKey, List[float]] = {}

    def series(self, **labels: Any) -> "HistogramSeries":
        """The samples of one label set, bound for repeated recording."""
        return HistogramSeries(self, _label_key(labels))

    def observe(self, value: float, **labels: Any) -> None:
        self.series(**labels).observe(value)

    def _cumulative(self, slot: List[float]) -> List[float]:
        """Per bound, the observations <= it; then the +Inf count."""
        running = 0.0
        out = []
        for count in slot[:len(self.buckets)]:
            running += count
            out.append(running)
        out.append(slot[-1])
        return out

    def samples(self) -> List[Dict[str, Any]]:
        out = []
        for key in sorted(self._values):
            slot = self._values[key]
            cumulative = self._cumulative(slot)
            out.append({
                "labels": dict(key),
                "buckets": {str(b): cumulative[i]
                            for i, b in enumerate(self.buckets)},
                "inf": cumulative[-1],
                "sum": slot[-2],
                "count": slot[-1],
            })
        return out

    def exposition_lines(self) -> List[str]:
        lines = []
        for key, slot in sorted(self._values.items()):
            cumulative = self._cumulative(slot)
            for i, bound in enumerate(self.buckets):
                lines.append("%s_bucket%s %s" % (
                    self.name, _render_labels(key, [("le", _num(bound))]),
                    _num(cumulative[i])))
            lines.append("%s_bucket%s %s" % (
                self.name, _render_labels(key, [("le", "+Inf")]),
                _num(cumulative[-1])))
            lines.append("%s_sum%s %s" % (
                self.name, _render_labels(key), _num(slot[-2])))
            lines.append("%s_count%s %s" % (
                self.name, _render_labels(key), _num(slot[-1])))
        return lines


class HistogramSeries:
    """A histogram's samples for one fixed label set, its key resolved
    once; like :class:`CounterSeries`, it survives ``reset_values``."""

    __slots__ = ("_values", "_key", "_buckets")

    def __init__(self, histogram: Histogram, key: LabelKey):
        self._values = histogram._values
        self._key = key
        self._buckets = histogram.buckets

    def observe(self, value: float) -> None:
        buckets = self._buckets
        slot = self._values.get(self._key)
        if slot is None:
            slot = self._values[self._key] = [0.0] * (len(buckets) + 3)
        # The first bucket whose bound is >= value; a NaN is <= no bound.
        first = bisect_left(buckets, value) if value == value \
            else len(buckets)
        slot[first] += 1
        slot[-2] += value
        slot[-1] += 1


def _num(value: float) -> str:
    """Render a float the way Prometheus does: integers bare, and
    ``+Inf``, ``-Inf`` and ``NaN`` for the values that are not finite."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


class MetricsRegistry:
    """Named instruments, get-or-create, deterministic export."""

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get(self, name: str, factory: Any, kind: str) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError("metric %r already registered as %s"
                                 % (name, existing.kind))
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help_text), "counter")

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help_text), "gauge")

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, lambda: Histogram(name, help_text, buckets),
                         "histogram")

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def reset(self) -> None:
        """Zero every sample; an alias of :meth:`reset_values`.

        ``reset`` used to drop the *registrations* themselves, which
        orphaned the import-time instrument references engine modules
        hold — they kept recording into objects the registry no longer
        exported.  Registrations are module lifetime by design, so
        resetting now only clears the recorded values.
        """
        self.reset_values()

    def reset_values(self) -> None:
        """Zero every sample but keep all registrations — the test
        isolation primitive (``tests/obs/conftest.py`` applies it
        before every test so metrics asserted in one test cannot bleed
        into the next)."""
        for instrument in self._instruments.values():
            instrument.reset_values()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable view of every instrument's samples."""
        return {
            name: {
                "type": inst.kind,
                "help": inst.help_text,
                "samples": inst.samples(),
            }
            for name, inst in sorted(self._instruments.items())
        }

    def exposition(self) -> str:
        """Prometheus text exposition of the whole registry."""
        lines: List[str] = []
        for name, inst in sorted(self._instruments.items()):
            if inst.help_text:
                lines.append("# HELP %s %s"
                             % (name, _escape_help(inst.help_text)))
            lines.append("# TYPE %s %s" % (name, inst.kind))
            lines.extend(inst.exposition_lines())
        return "\n".join(lines) + ("\n" if lines else "")


#: the process-wide default registry every subsystem records into.
REGISTRY = MetricsRegistry()


def counter(name: str, help_text: str = "") -> Counter:
    return REGISTRY.counter(name, help_text)


def gauge(name: str, help_text: str = "") -> Gauge:
    return REGISTRY.gauge(name, help_text)


def histogram(name: str, help_text: str = "",
              buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, help_text, buckets)
