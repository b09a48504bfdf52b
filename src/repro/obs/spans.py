"""Hierarchical span tracing over the JSONL trace stream.

A *span* is a named interval on the simulated clock with a parent — the
unit every distributed tracer (Dapper, Jaeger, OpenTelemetry) uses to
answer "why was this request slow?". The repo's flat events say *that* a
fetch missed or an RPC failed; spans say *where inside which request*:

    run -> epoch -> batch -> data_load                          (training)
    batch -> fetch_batch -> fetch -> rpc -> rpc_attempt         (shard tier)

Design constraints, in order:

* **Determinism.** Trace and span IDs are minted from the run seed via
  the same splitmix64 finalizer the consistent-hash ring uses, over a
  sequential counter, so two runs of the same configuration emit
  byte-identical span events and no two spans of one trace segment share
  an ID. One thread drives a run, so the counter needs no lock.
* **Zero cost when off.** Every active observer owns a tracker; an
  inactive one (``NULL_OBSERVER`` included) has none, and its call
  sites' ``obs.active`` guards keep a run from allocating a single span
  object (asserted by tests).
* **One event per span.** A span is emitted as a single ``kind="span"``
  event when it *finishes* (parents therefore appear after their
  children in the file); reconstruction links ``parent`` -> ``id``
  after reading the whole trace, so ordering never matters.

Span event schema (see README "Observability" for the full table)::

    {"kind": "span", "trace": <16-hex>, "id": <16-hex>,
     "parent": <16-hex or null>, "name": str,
     "t0_s": float, "t1_s": float, ...kind-specific attrs}

:class:`SpanTracker` also stamps the ambient span onto every *flat*
event the observer emits (``trace``/``span`` fields), which is what
correlates breaker trips, audit decisions, and RPC counters back to the
request that caused them. The stamp is the innermost open span
(:meth:`SpanTracker.current_id`; with no open span an event carries no
``span``), for per-request rows exactly as for flat events. That stamp
is also the JSONL sink's block boundary — a row whose stamp differs
from the open block's closes it — so opening or finishing a span needs
no hook into the sink: the next row simply arrives under another span.

:func:`build_span_forest` turns a trace back into navigable trees; the
critical-path analyzer in :mod:`repro.obs.critpath` consumes them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.utils.hashing import splitmix64

__all__ = [
    "Span",
    "SpanTracker",
    "SpanNode",
    "build_span_forest",
    "span_seed_from",
]

_MASK = (1 << 64) - 1

#: Salt separating the trace-ID domain from the ring's vnode hashes
#: (both use splitmix64 over small integers).
_TRACE_SALT = 0x5350414E_54524143  # "SPANTRAC"


def span_seed_from(seed: int) -> int:
    """Fold an arbitrary run seed into the 64-bit trace-ID domain."""
    return splitmix64((int(seed) ^ _TRACE_SALT) & _MASK)


class Span:
    """One open interval: identity plus start time plus static attrs.

    Plain mutable object (``__slots__``, no dataclass machinery) because
    one is allocated per traced operation on the hot path.
    """

    __slots__ = ("span_id", "parent_id", "name", "t0_s", "attrs")

    def __init__(
        self,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        t0_s: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t0_s = t0_s
        self.attrs = attrs


class SpanTracker:
    """Mints deterministic span IDs and tracks the open-span stack.

    Parameters
    ----------
    seed:
        Run seed; the 16-hex ``trace_id`` and every span ID derive from
        it (same seed, same configuration => byte-identical span events).
    emit:
        Sink for finished span events — normally ``Observer.emit``-shaped
        ``(kind, **fields)``; injected to avoid an import cycle.
    """

    def __init__(self, seed: int, emit: Callable[..., None]) -> None:
        self._trace_seed = span_seed_from(seed)
        self.trace_id = format(self._trace_seed, "016x")
        self._emit = emit
        self._seq = 0
        self._stack: List[Span] = []

    # -- identity ------------------------------------------------------
    def _mint(self) -> str:
        """The next 16-hex span ID of this trace's counter."""
        self._seq += 1
        return format(splitmix64(self._trace_seed ^ self._seq), "016x")

    def current_id(self) -> Optional[str]:
        """The innermost open span's ID, or ``None``."""
        stack = self._stack
        return stack[-1].span_id if stack else None

    # -- lifecycle -----------------------------------------------------
    def start(self, name: str, t0_s: float, **attrs: Any) -> Span:
        """Open a span as a child of the innermost open span."""
        span = Span(self._mint(), self.current_id(), name, float(t0_s), attrs)
        self._stack.append(span)
        return span

    def finish(self, span: Span, t1_s: float, **attrs: Any) -> None:
        """Close a span and emit its single ``kind="span"`` event.

        Closing out of order is tolerated (any still-open descendants
        are closed at the same instant) so error paths can finish an
        outer span without unwinding inner bookkeeping first.
        """
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
            self._emit_span(top, float(t1_s))
        self._emit_span(span, float(t1_s), **attrs)

    def record(self, name: str, t0_s: float, t1_s: float, **attrs: Any) -> None:
        """Emit an already-finished span (no Span allocation, no stack).

        The cheap form for leaf intervals measured inline — RPC
        attempts and backoff sleeps.
        """
        self._emit(
            "span",
            trace=self.trace_id,
            id=self._mint(),
            parent=self.current_id(),
            name=name,
            t0_s=float(t0_s),
            t1_s=float(t1_s),
            **attrs,
        )

    def _emit_span(self, span: Span, t1_s: float, **extra: Any) -> None:
        fields: Dict[str, Any] = dict(span.attrs)
        fields.update(extra)
        self._emit(
            "span",
            trace=self.trace_id,
            id=span.span_id,
            parent=span.parent_id,
            name=span.name,
            t0_s=span.t0_s,
            t1_s=t1_s,
            **fields,
        )


# ----------------------------------------------------------------------
# Reconstruction: trace events -> span trees
# ----------------------------------------------------------------------

class SpanNode:
    """One reconstructed span with links to its children.

    ``event`` is the raw trace dict; convenience properties expose the
    schema fields. Children are sorted by start time.
    """

    __slots__ = ("event", "children")

    def __init__(self, event: Dict[str, Any]) -> None:
        self.event = event
        self.children: List["SpanNode"] = []

    @property
    def span_id(self) -> str:
        return self.event["id"]

    @property
    def parent_id(self) -> Optional[str]:
        return self.event.get("parent")

    @property
    def name(self) -> str:
        return self.event.get("name", "?")

    @property
    def t0_s(self) -> float:
        return float(self.event.get("t0_s", 0.0))

    @property
    def t1_s(self) -> float:
        return float(self.event.get("t1_s", self.t0_s))

    @property
    def dur_s(self) -> float:
        return max(0.0, self.t1_s - self.t0_s)


def build_span_forest(
    events: Iterable[Dict[str, Any]],
) -> Tuple[List[SpanNode], Dict[str, SpanNode]]:
    """Link ``kind="span"`` events into trees.

    Returns ``(roots, by_id)``. Roots are spans with no parent *or*
    whose parent never closed (a crashed writer loses open ancestors —
    their finished descendants still reconstruct as orphan roots).
    Event order in the file is irrelevant.
    """
    by_id: Dict[str, SpanNode] = {}
    for ev in events:
        if ev.get("kind") == "span":
            by_id[ev["id"]] = SpanNode(ev)
    roots: List[SpanNode] = []
    for node in by_id.values():
        parent = by_id.get(node.parent_id) if node.parent_id else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in by_id.values():
        node.children.sort(key=lambda n: (n.t0_s, n.t1_s, n.span_id))
    roots.sort(key=lambda n: (n.t0_s, n.t1_s, n.span_id))
    return roots, by_id
