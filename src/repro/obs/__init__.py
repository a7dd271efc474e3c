"""Observability: trace spans, metrics and profiles.

Three pieces with the same contract (default-off or cold-site-only):

* :mod:`repro.obs.trace` — hierarchical spans on a contextvar.
  **Off by default**; when no trace is active, instrumented code pays
  one contextvar read and takes the exact seed code path (equivalence
  suites and bench floors hold with tracing off).
* :mod:`repro.obs.metrics` — a process-local registry of counters /
  gauges / histograms, updated only at cold sites (per query, per
  job, per synthesis run) and therefore always on.
* :mod:`repro.obs.profile` — a sampling profiler attributing stack
  samples to the active span.  **Off until started**; the standing
  cost is one module-global read at span boundaries.

See ``docs/observability.md`` for the user-facing tour.
"""

from repro.obs.trace import (NULL_SPAN, Span, current_span, enabled,
                             format_tree, span)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               REGISTRY, counter, gauge, histogram)
from repro.obs.profile import Profiler, format_summary

__all__ = [
    "NULL_SPAN", "Span", "current_span", "enabled", "format_tree", "span",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "counter", "gauge", "histogram",
    "Profiler", "format_summary",
]
