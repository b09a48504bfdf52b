"""Run-wide observability: tracing, metrics, and reporting (``repro.obs``).

Zero-overhead-when-disabled instrumentation for the whole stack. An
:class:`~repro.obs.observer.Observer` is either off or binds a trace
recorder (in-memory / JSONL), a metrics registry and a span tracker; the
trainer threads it through the semantic cache, both cache layers, the
remote store, the elastic manager, the circuit breaker, and the
checkpoint machinery. The :mod:`~repro.obs.report` layer aggregates
exported traces back into the per-epoch numbers the trainer reported —
the consistency check behind ``repro report``.
"""

# The one package that imports anything: the benchmark harness imports
# these three names from ``repro.obs``. All three sit below the report
# and the critical-path analysis, so importing ``repro.obs`` loads neither.
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.trace import JsonlRecorder

__all__ = ["JsonlRecorder", "MetricsRegistry", "Observer"]
