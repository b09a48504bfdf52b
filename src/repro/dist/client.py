"""Fault-tolerant sharded cache client: the shard tier under the one
serve path of every policy.

:class:`ShardedCacheClient` *is* a
:class:`~repro.core.semantic_cache.SemanticCache`: the same ``fetch``,
the same layer objects (SpiderCache's
:class:`~repro.core.importance_cache.ImportanceCache` and
:class:`~repro.core.homophily_cache.HomophilyCache`, iCache's L-section, a
classic LRU / LFU / MinIO cache) making every
admission/eviction/substitution decision and holding all metadata (heap,
FIFO, cover map, stats). The only thing this module changes is where the
payload *bytes* live: each layer is given a :class:`ShardStore`,
which keeps them on :class:`~repro.dist.server.CacheShardServer`
partitions reached over a deadline-enforcing
:class:`~repro.dist.rpc.Transport` — the simulated, fault-injected
:class:`~repro.dist.rpc.SimRpcChannel` (deterministic oracle) or the
real-process :class:`~repro.dist.transport.RealRpcTransport` (servers in
worker processes), selected by the ``transport`` parameter; both charge
the same modelled RPC time to the run's clock.
Consequences:

* a fault-free sharded run is **bit-identical** (same served stream,
  ``state_dict``, stats) to a monolithic run for any shard count *by
  construction* — there is no second copy of the policy to drift; the
  differential oracle in ``tests/dist`` checks that placement never
  leaks into it;
* an RPC failure can only lose *payload availability* for a while,
  never corrupt policy state or change a decision: a failed read makes
  the layer see a miss (the next protocol stage serves, counted in
  ``degraded_lookups``), and a write never fails — a put is queued and
  lands with a later frame — so every layer decides at request time
  exactly as the monolith does, and capacity/eviction/FIFO invariants
  hold through arbitrary outage/brownout schedules.

What lives here is the shard tier proper: the consistent-hash ring and
the per-key location maps, one logical request = breaker gate + retries
with the seeded-jitter backoff of :class:`~repro.dist.retry.RetryPolicy`
(:meth:`ShardedCacheClient._call_with_retries`, which answers a value,
never raises, when the breaker rejects the request or the retries run
out — as the remote store answers ``None``), a
:class:`~repro.resilience.breaker.CircuitBreaker` per shard, and one
write queue per shard. A key's shard is a pure function of the key, so
the queue is keyed by ``(layer, key)`` and holds the newest write of
each key: a payload (a put) or ``None`` (a delete — an evicted victim,
a restore's stale resident). A put sets the key's location and queues
the payload; until it leaves, :meth:`ShardStore.get` and
:meth:`ShardStore.peek` serve it from the queue with no RPC. Every frame
to a shard carries that shard's queue (``after_writes``: the writes
first, then the frame's own read) and puts it back if the frame fails,
so a write is never dropped; once faults end and the queues drain,
every shard holds exactly the payloads its metadata owns.

The loaders enter through :meth:`ShardedCacheClient.fetch_many`, which
opens with one frame per shard that has planned reads or queued writes
— a multi-key ``get_many`` that fills the stores' read-ahead buffers,
or a bare ``bulk_write`` — and then runs the same per-request protocol.
The batch's admits and victims, and the Homophily refresh that follows
it, stay queued until the next batch's opening frames, so no write
waits longer than one batch and none costs a round trip of its own.

The client is driven by one thread: the epoch loop collates every
rank's batch in turn.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cache.base import Cache
from repro.cache.payload_store import PayloadStore
from repro.core.semantic_cache import FetchOutcome, SemanticCache
from repro.dist.retry import RetryPolicy
from repro.dist.ring import ConsistentHashRing
from repro.dist.rpc import (
    RpcTimeoutError,
    ShardOutageError,
    SimRpcChannel,
    Transport,
)
from repro.dist.server import CacheShardServer
from repro.obs.observer import Observer
from repro.resilience.breaker import CircuitBreaker
from repro.storage.clock import SimClock

__all__ = ["ShardedCacheClient", "ShardStore"]

#: What :meth:`ShardedCacheClient._call_with_retries` answers when the
#: shard is unreachable: its breaker rejected the request, or every
#: attempt failed. Callers degrade on it; a checkpoint raises.
_UNREACHABLE = object()

#: Single-attempt channel failures (retried / parked by the layers above).
_ATTEMPT_ERRORS = (ShardOutageError, RpcTimeoutError)

#: Simulated seconds a shard's open breaker waits before its half-open probe.
BREAKER_COOLDOWN_S = 0.05


class ShardStore(PayloadStore):
    """One cache layer's payloads on the shard tier
    (:class:`~repro.cache.payload_store.PayloadStore` over RPC).

    ``loc`` maps each key whose payload was put to the shard holding it
    (or about to: the put may still be queued); a key absent from it
    costs no RPC. A read's failure modes surface as the port's soft
    answer, ``None``, after being counted on the client; a put always
    lands, in the client's write queue first.

    ``ahead`` is the read-ahead buffer: payloads
    :meth:`ShardedCacheClient.fetch_many` read, or wrote, with its
    opening frames for the batch it is serving, empty outside such a
    call. :meth:`get` serves from it after the write queue, and a
    ``put`` / ``delete`` of the key drops the entry, so a buffered
    payload is always the one the shard holds.
    """

    def __init__(
        self, tier: "ShardedCacheClient", layer: str, loc: Dict[int, int]
    ) -> None:
        self._tier = tier
        self._layer = layer  # the layer's name: its key on the servers
        self.loc = loc
        self.ahead: Dict[int, Any] = {}
        self.unread: Set[int] = set()  # keys read ahead no get() has served

    def _queued(self, shard: int, key: int) -> Optional[Any]:
        """The payload a still-queued put of ``key`` carries, else None."""
        queue = self._tier._writes.get(shard)
        return None if queue is None else queue.get((self._layer, key))

    def get(self, key: int, substitute: bool = False) -> Optional[Any]:
        """Payload read — write queue, read-ahead buffer, else one RPC
        with retries; unreachable or lost is ``None``."""
        shard = self.loc.get(key)
        if shard is None:
            return None
        tier, layer = self._tier, self._layer
        payload = self._queued(shard, key)
        if payload is None:
            payload = self.ahead.get(key)
            if payload is not None:
                self.unread.discard(key)
            else:
                payload = tier._call_with_retries(shard, "get", layer, key)
                if payload is None or payload is _UNREACHABLE:
                    # Unreachable — or the shard lost a payload the
                    # metadata owns (only after external interference);
                    # either way a miss.
                    tier.degraded_lookups += 1
                    return None
        kind = "substitute_hits" if substitute else "hits"
        tier._shard_stats[shard][f"{layer}_{kind}"] += 1
        return payload

    def put(self, key: int, value: Any) -> bool:
        """Place ``key`` on its ring shard and queue the payload there;
        the shard's next frame carries it. Always ``True``: the write
        stays queued until a frame lands it."""
        key = int(key)
        self.ahead.pop(key, None)
        shard = self.loc.get(key)
        if shard is None:
            shard = self.loc[key] = self._tier.ring.shard_for(key)
        self._tier._writes.setdefault(shard, {})[self._layer, key] = value
        return True

    def delete(self, key: int) -> None:
        """Forget ``key`` and queue its payload's delete for the shard's
        next frame."""
        key = int(key)
        self.ahead.pop(key, None)
        shard = self.loc.pop(key, None)
        if shard is not None:
            self._tier._writes.setdefault(shard, {})[self._layer, key] = None

    def peek(self, key: int) -> Optional[Any]:
        """Payload read that moves no hit counter (the write queue, else
        one ``get_many`` frame); None on failure."""
        shard = self.loc.get(key)
        if shard is None:
            return None
        payload = self._queued(shard, key)
        if payload is not None:
            return payload
        frame = self._tier._call_with_retries(
            shard, "get_many", [(self._layer, key)]
        )
        if frame is _UNREACHABLE:
            self._tier.degraded_lookups += 1
            return None
        return frame[0]

    def export(self, keys: Sequence[int]) -> List[Any]:
        """Payloads of ``keys``, one ``get_many`` frame per owning shard
        (it lands the shard's queued writes first). Raises on an
        unreachable shard or a missing payload — a checkpoint must be
        exact or not taken at all."""
        by_shard: Dict[int, List[int]] = {}
        for k in keys:
            by_shard.setdefault(self.loc[k], []).append(k)
        out: Dict[int, Any] = {}
        for shard, ks in by_shard.items():
            payloads = self._tier._call_or_raise(
                shard, "get_many", [(self._layer, k) for k in ks]
            )
            out.update(
                (k, p) for k, p in zip(ks, payloads) if p is not None
            )
        missing = [k for k in keys if k not in out]
        if missing:
            raise RuntimeError(
                f"shard tier lost {len(missing)} {self._layer} payload(s) "
                f"(e.g. key {missing[0]}); cannot snapshot"
            )
        return [out[k] for k in keys]

    def load(self, entries: Dict[int, Any]) -> None:
        """Replace the layer's payloads: queue the current residents'
        deletes and every entry's put (per the ring), then flush every
        shard's queue. Raises if a shard is unreachable — a restore
        must be complete or not happen (what did not leave stays
        queued)."""
        tier = self._tier
        for key in list(self.loc):
            self.delete(key)
        for key, payload in entries.items():
            self.put(key, payload)
        for shard in sorted(tier._writes):
            tier._call_or_raise(shard, "bulk_write")


class ShardedCacheClient(SemanticCache):
    """The semantic cache with its payloads on breaker-guarded shard RPCs.

    Parameters
    ----------
    total_capacity / imp_ratio / layers:
        Item budget, importance split and layers — exactly as the
        monolith.
    n_shards:
        Shard-server count (the consistent-hash ring's fixed size).
    transport:
        ``"sim"`` (default) builds a :class:`SimRpcChannel` — in-process
        servers, simulated clock, fault injection; the deterministic
        oracle. ``"real"`` builds a
        :class:`~repro.dist.transport.RealRpcTransport` — servers in
        real worker processes, charging the same modelled time (chaos
        uses the transport's ``kill_shard``). Fault plans go in the sim
        transport's ``fault_plans``.
    clock / deadline_s:
        Forwarded to the transport (shared clock, per-call deadline).
    retry:
        :class:`RetryPolicy` for every cache-protocol call; default
        policy retries twice with seeded-jitter exponential backoff.

    Every shard gets its own :class:`CircuitBreaker` with a
    :data:`BREAKER_COOLDOWN_S` cool-down.

    Attributes
    ----------
    transport / ring / breakers:
        The RPC carrier, the consistent-hash ring, and the
        ``{shard: CircuitBreaker}`` map.
    degraded_lookups / rpc_retries:
        Failed payload reads served as misses, and retried attempts.
    """

    def __init__(
        self,
        total_capacity: int,
        imp_ratio: float = 0.9,
        n_shards: int = 1,
        transport: str = "sim",
        clock: Optional[SimClock] = None,
        deadline_s: float = 0.01,
        retry: Optional[RetryPolicy] = None,
        layers: Optional[Sequence[Cache]] = None,
    ) -> None:
        # layer name -> (key -> shard holding the payload); owned here
        # (placement, the read plan and the audit read them), written by
        # the layers' stores.
        self._loc: Dict[str, Dict[int, int]] = {}
        super().__init__(total_capacity, imp_ratio, layers)
        self.ring = ConsistentHashRing(n_shards)
        if transport == "sim":
            self.transport: Transport = SimRpcChannel(
                clock=clock, deadline_s=deadline_s
            )
        elif transport == "real":
            from repro.dist.transport import RealRpcTransport

            self.transport = RealRpcTransport(clock=clock, deadline_s=deadline_s)
        else:
            raise ValueError(
                f"unknown transport {transport!r}; expected 'sim' or 'real'"
            )
        for sid in range(self.ring.n_shards):
            if not self.transport.has_shard(sid):
                self.transport.add_shard(sid)
        self.clock = self.transport.clock
        self.retry = retry if retry is not None else RetryPolicy()
        self.breakers: Dict[int, CircuitBreaker] = {
            sid: CircuitBreaker(cooldown_s=BREAKER_COOLDOWN_S)
            for sid in range(self.ring.n_shards)
        }

        # -- fault-tolerance bookkeeping ---------------------------------
        # shard -> {(layer, key): payload, or None for a delete}: the
        # newest write of each key not yet sent; a shard is absent while
        # its queue is empty.
        self._writes: Dict[int, Dict[Tuple[str, int], Any]] = {}
        self._shard_stats: Dict[int, Counter] = defaultdict(Counter)
        self.degraded_lookups = 0
        self._rpc_seq = 0  # deterministic per-request id for jitter

    def _payload_store(self, layer: str) -> ShardStore:
        return ShardStore(self, layer, self._loc.setdefault(layer, {}))

    @property
    def dropped_admits(self) -> int:
        """Admits the tier failed to keep: always 0, since a put is
        queued until a frame lands it. Kept for the callers that still
        count it among failed operations."""
        return 0

    @property
    def rpc_retries(self) -> int:
        """Retried attempts: the per-shard ledger's sum."""
        return sum(ss["rpc_retries"] for ss in self._shard_stats.values())

    # ------------------------------------------------------------------
    # wiring / introspection
    # ------------------------------------------------------------------
    def attach_observer(self, observer: Observer) -> None:
        """Publish RPC, breaker, and cache activity to ``observer``."""
        super().attach_observer(observer)
        self.transport.attach_observer(observer)
        for sid, breaker in self.breakers.items():
            breaker.attach_observer(observer, label=f"shard{sid}")

    @property
    def servers(self) -> Dict[int, CacheShardServer]:
        """In-process server dict (sim transport only; the real
        transport's servers live in other processes)."""
        return self.transport.servers

    # ------------------------------------------------------------------
    # RPC machinery
    # ------------------------------------------------------------------
    def _call_with_retries(
        self, shard: int, method: str, *args: Any, nbytes: int = 0
    ) -> Any:
        """One logical request: breaker gate, then up to
        ``retry.max_attempts`` channel attempts with seeded backoff.

        Answers ``method``'s reply, or :data:`_UNREACHABLE` when the
        breaker rejects the request (fail-fast) or every attempt fails;
        callers degrade on it. The writes queued for ``shard`` leave in
        the same frame (``after_writes``), applied *before* ``method``,
        and their payloads count in the frame's ``nbytes``; a
        ``bulk_write`` request carries them alone. If the request fails
        they go back in the queue.
        """
        shard = int(shard)
        writes = self._writes.pop(shard, None)
        if writes:
            carried = [(layer, key, p) for (layer, key), p in writes.items()]
            nbytes += sum(
                int(np.asarray(p).nbytes) for p in writes.values()
                if p is not None
            )
            if method == "bulk_write":
                args = (carried,)
            else:
                method, args = "after_writes", (carried, method, *args)
        breaker = self.breakers[shard]
        clock = self.clock
        obs = self._obs
        request_id = self._rpc_seq
        self._rpc_seq += 1
        span = (
            obs.span_start(
                "rpc", clock.total_seconds, shard=shard, method=method,
                breaker=breaker.state.value, transport=self.transport.name,
            )
            if obs.active else None
        )
        error, attempts = "retry_exhausted", self.retry.max_attempts
        for attempt in range(self.retry.max_attempts):
            if not breaker.allow(clock.total_seconds):
                breaker.fast_failures += 1
                error, attempts = "circuit_open", attempt
                break
            try:
                result = self.transport.call(shard, method, *args, nbytes=nbytes)
            except _ATTEMPT_ERRORS:
                breaker.record_failure(clock.total_seconds)
                if attempt + 1 < self.retry.max_attempts:
                    self._shard_stats[shard]["rpc_retries"] += 1
                    t0 = clock.total_seconds
                    clock.advance(
                        self.transport.STAGE,
                        self.retry.backoff_s(request_id, attempt),
                    )
                    if obs.active:
                        obs.span_record(
                            "backoff", t0, clock.total_seconds,
                            shard=shard, attempt=attempt,
                        )
                continue
            breaker.record_success(clock.total_seconds)
            if span is not None:
                obs.span_end(
                    span, clock.total_seconds, ok=True, attempts=attempt + 1,
                )
            return result
        if span is not None:
            obs.span_end(
                span, clock.total_seconds, ok=False, error=error,
                attempts=attempts,
            )
        if writes:
            # Nothing queued for the shard since the pop: the put-back
            # keeps each key's newest write. A timed-out frame may have
            # applied them already; writes are idempotent.
            self._writes[shard] = writes
        return _UNREACHABLE

    def _call_or_raise(self, shard: int, method: str, *args: Any) -> Any:
        """:meth:`_call_with_retries` for a checkpoint: an unreachable
        shard raises, because a snapshot or restore must be exact."""
        reply = self._call_with_retries(shard, method, *args)
        if reply is _UNREACHABLE:
            raise RuntimeError(
                f"shard {shard} unreachable for {method}; a checkpoint "
                "must be exact or not taken"
            )
        return reply

    def _flush(self, shard: int) -> Any:
        """Send ``shard``'s queued writes as one ``bulk_write`` request
        (:meth:`_call_with_retries`: a failure puts them back); answers
        its reply, ``None`` when nothing is queued."""
        if shard not in self._writes:
            return None
        return self._call_with_retries(shard, "bulk_write")

    # ------------------------------------------------------------------
    # request spans around the inherited protocol
    # ------------------------------------------------------------------
    def fetch(
        self,
        index: int,
        score: float,
        remote_get: Callable[[int], Any],
    ) -> FetchOutcome:
        """:meth:`SemanticCache.fetch`, unchanged; under faults,
        unreachable payloads degrade each stage to a miss and the next
        stage takes over. On an active observer the whole request runs
        inside a ``fetch`` span — every RPC attempt, backoff and
        breaker rejection it causes hangs off that span in the trace.
        """
        index = int(index)
        obs = self._obs
        span = (
            obs.span_start("fetch", self.clock.total_seconds, requested_id=index)
            if obs.active else None
        )
        if span is None:
            return super().fetch(index, score, remote_get)
        try:
            out = super().fetch(index, score, remote_get)
        except BaseException as exc:
            obs.span_end(
                span, self.clock.total_seconds, error=type(exc).__name__
            )
            raise
        obs.span_end(
            span, self.clock.total_seconds,
            served_id=out.served_id, source=out.source.value,
        )
        return out

    def fetch_many(
        self, indices: Sequence[int], scores: Sequence[float],
        remote_get: Callable[[int], Any],
    ) -> List[FetchOutcome]:
        """:meth:`SemanticCache.fetch_many` (:meth:`fetch` per request —
        that stays the definition) after one opening frame per shard
        that has planned reads or queued writes: a ``get_many`` of what
        those requests would read one RPC each, or a bare
        ``bulk_write``. Either carries the shard's queued writes, so the
        previous batch's admits and victims land here. What a frame read
        or wrote goes into the read-ahead buffers. Purely an
        accelerator: a buffered payload whose key an earlier request of
        the batch evicted is dropped unread, and a frame that fails
        buffers nothing, so its keys take the per-key path with its
        retries, degradation and counters (its writes stay queued and
        are served from there). This batch's own writes stay queued for
        the next one. The buffers are empty again on return *and* on
        raise; with an observer the whole call is one ``fetch_batch``
        span.
        """
        indices = [int(i) for i in indices]
        obs = self._obs
        span = (
            obs.span_start("fetch_batch", self.clock.total_seconds, n=len(indices))
            if obs.active else None
        )
        stores = {layer.name: layer.store for layer in self.layers}
        frames = prefetched = 0
        try:
            plan = self._plan_reads(indices)
            for shard in sorted(plan.keys() | self._writes.keys()):
                frames += 1
                writes = self._writes.get(shard, {})
                entries = plan.get(shard, [])
                reply = (
                    self._call_with_retries(shard, "get_many", entries)
                    if entries else self._flush(shard)
                )
                if reply is _UNREACHABLE:
                    continue
                for (layer, key), payload in writes.items():
                    if payload is not None:  # landed: the shard holds it
                        stores[layer].ahead[key] = payload
                for (layer, key), payload in zip(entries, reply or ()):
                    if payload is not None:  # a lost one: per-key path
                        stores[layer].ahead[key] = payload
                        stores[layer].unread.add(key)
                        prefetched += 1
            return super().fetch_many(indices, scores, remote_get)
        finally:
            unused = sum(len(st.unread) for st in stores.values())
            for st in stores.values():
                st.ahead.clear()
                st.unread.clear()
            if span is not None:
                obs.span_end(
                    span, self.clock.total_seconds, frames=frames,
                    prefetched=prefetched, unused=unused,
                )

    def _plan_reads(
        self, indices: Sequence[int]
    ) -> Dict[int, List[Tuple[str, int]]]:
        """``{shard: [(layer, key), ...]}``: from metadata alone, the
        payload each request would read from a shard if served now — the
        first layer that names a key it holds a payload for, unless that
        payload is still queued (it is served from the queue). A request
        a layer would answer with a random draw is planned no further;
        it takes the per-key path."""
        plan: Dict[int, Dict[Tuple[str, int], None]] = {}
        writes = self._writes
        for index in indices:
            for layer in self.layers:
                key = layer.serve_key(index)
                shard = None if key is None else self._loc[layer.name].get(key)
                if shard is not None:
                    if (layer.name, key) not in writes.get(shard, ()):
                        plan.setdefault(shard, {})[layer.name, key] = None
                    break
        return {shard: list(entries) for shard, entries in plan.items()}

    def update_homophily(
        self, node_key: int, payload: Any, neighbor_ids: List[int]
    ) -> bool:
        """Per-batch Homophily Cache refresh, inside a ``put`` span."""
        obs = self._obs
        span = (
            obs.span_start("put", self.clock.total_seconds)
            if obs.active else None
        )
        ok = super().update_homophily(node_key, payload, neighbor_ids)
        if span is not None:
            obs.span_end(span, self.clock.total_seconds, ok=ok)
        return ok

    def verify_placement(self) -> List[Tuple[str, int, int, Optional[int]]]:
        """Placement-correctness oracle; returns violations (empty = OK).

        Each violation is ``(layer, key, located_shard, expected_shard)``
        for a key whose location disagrees with the ring, or
        ``(layer, key, located_shard, None)`` for a key whose payload is
        missing from the shard its metadata points at. A queued put
        counts as present there, a queued delete as absent."""
        ring = self.ring
        resident: Dict[Tuple[int, str], Set[int]] = {}
        for sid in self.transport.shard_ids:
            for layer in self._loc:
                try:
                    # Control-plane peek: no latency charge, no faults,
                    # no stats — the audit must not perturb the run.
                    keys = self.transport.peek(sid, "keys", layer)
                except _ATTEMPT_ERRORS:
                    # Unreachable shard (real-transport outage): every
                    # payload it held is reported lost, which is true.
                    keys = ()
                resident[(sid, layer)] = set(keys)
        for sid, writes in self._writes.items():  # as they will land
            for (layer, key), payload in writes.items():
                keys = resident.setdefault((sid, layer), set())
                if payload is None:
                    keys.discard(key)
                else:
                    keys.add(key)
        bad: List[Tuple[str, int, int, Optional[int]]] = []
        for layer, loc in self._loc.items():
            for key, shard in loc.items():
                expected = ring.shard_for(key)
                if expected != shard:
                    bad.append((layer, key, shard, expected))
                if key not in resident.get((shard, layer), ()):  # lost payload
                    bad.append((layer, key, shard, None))
        return bad

    # ------------------------------------------------------------------
    # snapshots / lifetime
    # ------------------------------------------------------------------
    def shard_snapshots(self) -> List[Dict[str, Any]]:
        """Per-shard service snapshot (pure-local: no RPCs, so snapshots
        work even mid-outage). Consumed by ``Observer.on_shards`` and the
        report's shards table."""
        occ = {layer: Counter(loc.values()) for layer, loc in self._loc.items()}
        ch = self.transport
        snaps = []
        for sid in sorted(ch.shard_ids):
            ss = self._shard_stats[sid]
            snap: Dict[str, Any] = {"shard": sid}
            for layer in self._loc:
                snap[f"{layer}_len"] = occ[layer].get(sid, 0)
                snap[f"{layer}_hits"] = ss[f"{layer}_hits"]
                snap[f"{layer}_substitute_hits"] = ss[f"{layer}_substitute_hits"]
            snap.update(
                rpc_calls=ch.per_shard_calls.get(sid, 0),
                rpc_failures=ch.per_shard_failures.get(sid, 0)
                + ch.per_shard_timeouts.get(sid, 0),
                rpc_timeouts=ch.per_shard_timeouts.get(sid, 0),
                rpc_retries=ss["rpc_retries"],
                rpc_fast_failures=self.breakers[sid].fast_failures,
                breaker=self.breakers[sid].state.value,
            )
            snaps.append(snap)
        return snaps

    def close(self) -> None:
        """Release the transport (worker processes in real mode);
        idempotent, no-op for the in-process sim channel."""
        self.transport.close()

    def __enter__(self) -> "ShardedCacheClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
