"""The Observer: one object binding a trace recorder and a metrics registry.

Instrumented components (:class:`~repro.core.semantic_cache.SemanticCache`,
the cache layers, :class:`~repro.storage.backends.RemoteStore`, the elastic
manager, the circuit breaker, both trainers) hold an ``Observer`` reference
— :data:`NULL_OBSERVER` by default — and guard every hook call with
``if obs.active:``. An observer is in one of two states. Built without a
recorder it is off: ``active`` is False, so an un-instrumented run pays
one attribute read per operation and nothing else; no events are built,
no metrics are touched, no span tracker exists. Built with a recorder it
is fully traced: every hook emits its event, stamped with the run's trace
ID and the innermost open span of its
:class:`~repro.obs.spans.SpanTracker`.

The per-request hooks (``fetch``, ``prefetch``, ``importance_admit``,
``evict``, ``audit`` — the kinds of :data:`~repro.obs.trace.ROW_SCHEMA`)
hand the sink a positional tuple through
:meth:`~repro.obs.trace.TraceRecorder.emit_row`; every other hook
builds the flat dict in :meth:`Observer.emit`. What a sink does with a
row is its business: in-memory sinks expand it to the same flat dict
immediately, the JSONL sink packs rows into block lines.

Counts are kept once, by their owner: a component that already counts
(cache, policy, store, transport, breaker) registers itself on attach,
and :meth:`Observer.snapshot` reads its ``counters()``. Hooks feed the
:class:`~repro.obs.metrics.MetricsRegistry` only the counts no owner
keeps.

The observer also carries the little cross-component context the event
schema needs: the trainer's current epoch, the configured cache-hit
latency, and the simulated latency of the most recent remote store fetch
(consumed by the enclosing cache-fetch event).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanTracker
from repro.obs.trace import TraceRecorder

__all__ = ["Observer", "NULL_OBSERVER"]


class Observer:
    """Bundles a :class:`TraceRecorder`, a :class:`MetricsRegistry` and a
    :class:`~repro.obs.spans.SpanTracker`.

    :meth:`snapshot` is the run's metrics export: the registry merged
    with the counts of every registered owner. Owner counts are the
    owners' own state, so a checkpoint-resumed run exports what an
    uninterrupted one would. What stays live in the registry is a
    *journal tally* that includes replayed work after a restore:
    ``importance.rejected``, ``audit.*``, ``train.*`` and ``checkpoint.*``.

    Parameters
    ----------
    recorder:
        Trace sink. Given, the observer is active and traced; ``None``
        (the default) builds an inactive observer with no tracker —
        instrumented sites check ``active`` before calling any hook.
    metrics:
        Registry to publish into; defaults to a fresh one.
    span_seed:
        Seed of the span tracker's deterministic trace/span IDs; every
        emitted event carries the ``trace`` stamp and, inside a span,
        the ``span`` one.
    """

    def __init__(
        self,
        recorder: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        span_seed: int = 0,
    ) -> None:
        self.recorder = recorder
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.active = recorder is not None
        self.epoch = -1  # current trainer epoch; -1 outside a run
        self.hit_latency_s = 0.0  # set by the trainer (HIT_LATENCY_S)
        self._pending_store_latency_s = 0.0
        self.spans: Optional[SpanTracker] = (
            SpanTracker(span_seed, self.emit) if self.active else None
        )
        # Components whose counters() the snapshot reads, by identity.
        self._owners: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    def register(self, owner: Any) -> None:
        """Read ``owner.counters()`` into every :meth:`snapshot` (once per
        object however often it attaches; never on an inactive observer)."""
        if self.active:
            self._owners.setdefault(id(owner), owner)

    def snapshot(self) -> Dict[str, Dict]:
        """The registry's snapshot plus the owners' counts, summed by name;
        like a registry counter, a read count appears once it is non-zero."""
        snap = self.metrics.snapshot()
        counters = snap["counters"]
        for owner in self._owners.values():
            for name, value in owner.counters().items():
                if value:
                    counters[name] = counters.get(name, 0) + value
        snap["counters"] = dict(sorted(counters.items()))
        return snap

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> None:
        """Emit one flat trace event stamped with the current epoch, the
        trace ID and the innermost open span — the correlation that ties
        breaker trips and audit decisions back to the request causing
        them (a ``span`` event carries its own).

        This is the cold path (a kwargs dict per event): the hooks whose
        volume grows with the number of requests go through
        :meth:`_emit_row` instead. ``self.recorder.emit`` is looked up
        here, at call time — an external timer may shadow it on the
        instance.
        """
        event: Dict[str, Any] = {"kind": kind, "epoch": self.epoch}
        if kind != "span":
            tracker = self.spans
            event["trace"] = tracker.trace_id
            current = tracker.current_id()
            if current is not None:
                event["span"] = current
        event.update(fields)
        self.recorder.emit(event)

    def _emit_row(self, row: Tuple[Any, ...]) -> None:
        """Hand the recorder one per-request row, stamped like :meth:`emit`
        stamps a flat event: the current epoch, the trace ID, and the
        innermost open span."""
        tracker = self.spans
        self.recorder.emit_row(
            self.epoch, tracker.trace_id, tracker.current_id(), row
        )

    def set_epoch(self, epoch: int) -> None:
        """Advance the epoch stamp applied to subsequent events."""
        self.epoch = int(epoch)

    def close(self) -> None:
        """Close the underlying recorder (flushes JSONL sinks)."""
        self.recorder.close()

    # -- spans ----------------------------------------------------------
    def span_start(self, name: str, t0_s: float, **attrs: Any) -> Span:
        """Open a child span of the innermost open one.

        Call sites keep the uniform shape
        ``span = obs.span_start(...) if obs.active else None`` and later
        ``if span is not None: obs.span_end(span, t)``.
        """
        return self.spans.start(name, t0_s, **attrs)

    def span_end(self, span: Span, t1_s: float, **attrs: Any) -> None:
        """Close a span from :meth:`span_start`."""
        self.spans.finish(span, t1_s, **attrs)

    def span_record(self, name: str, t0_s: float, t1_s: float,
                    **attrs: Any) -> None:
        """Emit an already-measured leaf span."""
        self.spans.record(name, t0_s, t1_s, **attrs)

    # -- store ----------------------------------------------------------
    def on_store_fetch(self, latency_s: float) -> None:
        """A remote-store fetch completed (real simulated I/O).

        The latency accumulates until the enclosing cache fetch (or
        prefetch) consumes it, so retry stacks charging multiple inner
        fetches per logical request aggregate correctly.
        """
        self._pending_store_latency_s += latency_s

    def take_store_latency(self) -> float:
        """Consume (and zero) the accumulated remote-fetch latency."""
        lat = self._pending_store_latency_s
        self._pending_store_latency_s = 0.0
        return lat

    # -- cache hierarchy -------------------------------------------------
    def on_fetch(self, requested_id: int, served_id: int, source: Any) -> None:
        """One request was served: by ``SemanticCache.fetch`` or a
        policy's own serve path, after any store read.

        ``source`` is a :class:`~repro.cache.base.FetchSource`;
        remote fetches attach the store latency accumulated since the
        last consume, cache serves attach the configured hit latency.
        """
        src = getattr(source, "value", source)
        if src == "remote":
            latency_s = self.take_store_latency()
        elif src == "skipped":
            latency_s = 0.0
        else:
            latency_s = self.hit_latency_s
        self._emit_row(
            ("fetch", int(requested_id), int(served_id), src, latency_s)
        )

    def on_prefetch(self, index: int, admitted: bool) -> None:
        """An importance-driven prefetch fetched (and possibly admitted)."""
        latency_s = self.take_store_latency()
        self._emit_row(("prefetch", int(index), bool(admitted), latency_s))

    def on_admit(
        self,
        key: int,
        score: float,
        admitted: bool,
        evicted_key: Optional[int],
    ) -> None:
        """The Importance Cache decided on a freshly fetched sample
        (admissions and evictions are the cache's own counts)."""
        if not admitted:
            self.metrics.counter("importance.rejected").inc()
        self._emit_row((
            "importance_admit", int(key), float(score), bool(admitted),
            None if evicted_key is None else int(evicted_key),
        ))

    def on_evict(self, layer: str, key: int, reason: str) -> None:
        """A cache layer evicted a resident outside the admit path
        (FIFO turnover, elastic shrink)."""
        self._emit_row(("evict", layer, int(key), reason))

    def on_homophily_insert(self, key: int, n_neighbors: int) -> None:
        """The Homophily Cache inserted a batch's top-degree node."""
        self.emit(
            "homophily_insert", key=int(key), n_neighbors=int(n_neighbors)
        )

    def on_audit(
        self,
        action: str,
        key: int,
        layer: str,
        score: Optional[float] = None,
        threshold: Optional[float] = None,
        requested_id: Optional[int] = None,
        reason: Optional[str] = None,
    ) -> None:
        """A cache made an auditable per-entry decision.

        The audit family records *why*, not just *that*: ``action`` is
        ``"evict"`` / ``"substitute"`` / ``"drop"``, with the ``score``
        the entry held and the ``threshold`` it was measured against
        (e.g. the importance heap's current minimum). Events carry the
        trace/span of the request that forced the decision — the per-decision dataset the calibrated-substitution
        work (ROADMAP item 5) consumes.
        """
        self.metrics.counter(f"audit.{action}").inc()
        self._emit_row((
            "audit", action, int(key), layer,
            None if score is None else float(score),
            None if threshold is None else float(threshold),
            None if requested_id is None else int(requested_id),
            reason,
        ))

    # -- elastic manager -------------------------------------------------
    def on_elastic(self, epoch: int, beta: int, u: float, imp_ratio: float) -> None:
        """The Elastic Cache Manager produced one epoch's decision."""
        self.emit(
            "elastic", decision_epoch=int(epoch), beta=int(beta),
            u=float(u), imp_ratio=float(imp_ratio),
        )

    # -- sharded cache service -------------------------------------------
    def on_shards(self, snapshots: List[Dict[str, Any]]) -> None:
        """Per-epoch shard-service snapshot (occupancy, stats, breakers)."""
        self.emit("shards", shards=list(snapshots))

    # -- resilience ------------------------------------------------------
    def on_breaker(
        self, old: str, new: str, at_s: float, where: Optional[str] = None
    ) -> None:
        """The circuit breaker changed state.

        ``where`` names the guarded resource (e.g. ``"shard3"``) when
        the owner labeled its breaker; the emitted event's trace/span
        stamp ties the trip to the RPC that caused it.
        """
        if where is None:
            self.emit("breaker", old=old, new=new, at_s=float(at_s))
        else:
            self.emit(
                "breaker", old=old, new=new, at_s=float(at_s), where=where
            )

    def on_checkpoint(self, path: str, epoch: int, batch: int) -> None:
        """A checkpoint archive was written."""
        self.metrics.counter("checkpoint.written").inc()
        self.emit("checkpoint", path=path, at_epoch=int(epoch), batch=int(batch))

    def on_restore(self, path: str, epoch: int, batch: int) -> None:
        """Training state was restored from a checkpoint archive.

        Events between the ``checkpoint`` event whose ``path`` this one
        names and this event are replayed from that checkpoint;
        :func:`~repro.obs.report.aggregate_trace` drops them.
        """
        self.metrics.counter("checkpoint.restored").inc()
        self.emit("restore", path=path, at_epoch=int(epoch), batch=int(batch))

    # -- trainer ---------------------------------------------------------
    def on_run_start(self, meta: Dict[str, Any]) -> None:
        """A training run began; ``meta`` records its configuration."""
        self.emit("run_start", **meta)

    def on_batch(
        self,
        slot: int,
        size: int,
        trained_fraction: float,
        compute_s: float,
        is_visible_s: float,
    ) -> None:
        """One (non-empty) batch finished training (``preprocess_s`` stays
        in the event, always 0.0, for the record format)."""
        m = self.metrics
        m.counter("train.batches").inc()
        m.counter("train.samples").inc(size)
        self.emit(
            "batch",
            slot=int(slot),
            size=int(size),
            trained_fraction=float(trained_fraction),
            compute_s=float(compute_s),
            preprocess_s=0.0,
            is_visible_s=float(is_visible_s),
        )

    def on_epoch_metrics(self, metrics: Dict[str, Any]) -> None:
        """An epoch completed; ``metrics`` is the EpochMetrics as a dict."""
        self.emit("epoch", **metrics)


#: Shared inert observer; ``active`` is False so instrumented sites skip
#: every hook. Components default to this — never mutate it.
NULL_OBSERVER = Observer()
