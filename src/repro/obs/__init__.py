"""Query observability: options, tracing, metrics, profiles.

The pieces (docs/OBSERVABILITY.md):

* :class:`QueryOptions` — the typed execution API
  (``direction`` / ``strategy`` / ``timeout`` / ``trace`` / ``explain``)
  that replaced the deprecated ``force_*`` kwargs;
* :class:`Tracer` / :class:`Span` — opt-in span trees over the
  parse -> typecheck -> plan -> execute pipeline;
* :class:`MetricsRegistry` — counters / gauges / histograms with a
  Prometheus text exposition;
* :class:`QueryProfile` — the per-statement record (stage timings,
  estimated vs. actual cardinalities, index hits, dist superstep
  counters) carried by every ``StatementResult``.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.options import (
    DEFAULT_OPTIONS,
    Hints,
    QueryOptions,
    resolve_options,
)
from repro.obs.profile import (
    AtomProfile,
    QueryProfile,
    StepProfile,
    record_profile_metrics,
)
from repro.obs.replication import ReplicationMetrics
from repro.obs.trace import Span, Tracer

__all__ = [
    "QueryOptions",
    "Hints",
    "resolve_options",
    "DEFAULT_OPTIONS",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "ReplicationMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "SIZE_BUCKETS",
    "QueryProfile",
    "AtomProfile",
    "StepProfile",
    "record_profile_metrics",
]
