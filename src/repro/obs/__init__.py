"""Run-wide observability: tracing, metrics, and reporting (``repro.obs``).

Zero-overhead-when-disabled instrumentation for the whole stack. An
:class:`~repro.obs.observer.Observer` binds a trace recorder (null /
in-memory / JSONL) to a metrics registry; the trainer threads it through
the semantic cache, both cache layers, the remote store, the elastic
manager, the circuit breaker, and the checkpoint machinery. The
:mod:`~repro.obs.report` layer aggregates exported traces back into the
per-epoch numbers the trainer reported — the consistency check behind
``repro report``.
"""

from repro.obs.critpath import (
    critical_path,
    critpath_lines,
    self_time_breakdown,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    SPAN_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    render_prometheus,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.report import (
    EpochAggregate,
    aggregate_trace,
    render_report,
    write_run_artifacts,
)
from repro.obs.spans import (
    Span,
    SpanNode,
    SpanTracker,
    build_span_forest,
)
from repro.obs.trace import (
    SEGMENT_KIND,
    InMemoryRecorder,
    JsonlRecorder,
    NullRecorder,
    TraceRecorder,
    read_jsonl,
)

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "TraceRecorder",
    "NullRecorder",
    "InMemoryRecorder",
    "JsonlRecorder",
    "SEGMENT_KIND",
    "read_jsonl",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "SPAN_BUCKETS_S",
    "log_buckets",
    "render_prometheus",
    "Span",
    "SpanNode",
    "SpanTracker",
    "build_span_forest",
    "critical_path",
    "critpath_lines",
    "self_time_breakdown",
    "EpochAggregate",
    "aggregate_trace",
    "write_run_artifacts",
    "render_report",
]
