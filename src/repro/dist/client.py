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
* an RPC failure can only lose *payload availability*, never corrupt
  policy state: a failed read makes the layer see a miss (the next
  protocol stage serves, counted in ``degraded_lookups``), a failed put
  is a ``dropped_admits`` the layer leaves its metadata untouched for,
  so capacity/eviction/FIFO invariants hold through arbitrary
  outage/brownout schedules.

What lives here is the shard tier proper: the consistent-hash ring and
the per-key location maps, one logical request = breaker gate + retries
with the seeded-jitter backoff of :class:`~repro.dist.retry.RetryPolicy`
(:meth:`ShardedCacheClient._call_with_retries`, which answers a value,
never raises, when the breaker rejects the request or the retries run
out — as the remote store answers ``None``), a
:class:`~repro.resilience.breaker.CircuitBreaker` per shard, and one
delete queue per shard. Write ordering is *payload first* (the layers
put before touching metadata). Every payload no metadata owns any more —
an evicted victim's, an orphan of a failed put, a restore's stale
residents — is queued for its shard; every frame to that shard carries
the queue (deletes first, then the frame's own put/read) and puts it
back if the frame fails, and :meth:`ShardedCacheClient._flush` sends
what is left as one ``bulk_delete``.

The loaders enter through :meth:`ShardedCacheClient.fetch_many`, which
runs that same per-request protocol after one multi-key read frame per
shard has put the payloads it will ask for into the stores' read-ahead
buffers, and flushes the queues only when the call ends, so the batch's
victim deletes ride its later frames. Outside such a call a victim's
delete is flushed at once, so single ``fetch``, ``update_homophily`` and
replays issue the per-key RPC sequence.

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

    ``loc`` maps each key whose payload was put to the shard holding it;
    a key absent from it costs no RPC. Every failure mode of the tier
    surfaces as the port's soft answers — ``None`` / ``False`` — after
    being counted on the client.

    ``ahead`` is the read-ahead buffer: payloads
    :meth:`ShardedCacheClient.fetch_many` already read for the batch it
    is serving, empty outside such a call. :meth:`get` serves from it
    after the ``loc`` check, a ``put`` / ``delete`` of the key drops the
    entry, so a buffered payload is always the one the shard holds.
    """

    def __init__(
        self, tier: "ShardedCacheClient", layer: str, loc: Dict[int, int]
    ) -> None:
        self._tier = tier
        self._layer = layer  # the layer's name: its key on the servers
        self.loc = loc
        self.ahead: Dict[int, Any] = {}
        self.unread: Set[int] = set()  # buffered keys no get() has served

    def get(self, key: int, substitute: bool = False) -> Optional[Any]:
        """Payload read — read-ahead buffer, else one RPC with retries;
        unreachable or lost is ``None``."""
        shard = self.loc.get(key)
        if shard is None:
            return None
        tier, layer = self._tier, self._layer
        payload = self.ahead.get(key)
        if payload is not None:
            self.unread.discard(key)
        else:
            payload = tier._call_with_retries(shard, "get", layer, key)
            if payload is None or payload is _UNREACHABLE:
                # Unreachable — or the shard lost a payload the metadata
                # owns (only after external interference); either way a
                # miss.
                tier.degraded_lookups += 1
                return None
        kind = "substitute_hits" if substitute else "hits"
        tier._shard_stats[shard][f"{layer}_{kind}"] += 1
        return payload

    def put(self, key: int, value: Any) -> bool:
        """Payload put with retries; a failure is a *dropped admit*.

        New keys land on the ring's shard, resident ones are overwritten
        in place. An ambiguously timed-out put may have
        executed server-side; the orphan payload is queued for deletion
        so shard contents reconverge with the metadata. A delete of the
        key still queued for that shard rides this put's frame and runs
        before it, so it never destroys the payload that lands."""
        tier, layer = self._tier, self._layer
        key = int(key)
        self.ahead.pop(key, None)
        shard = self.loc.get(key)
        if shard is None:
            shard = tier.ring.shard_for(key)
        nbytes = int(np.asarray(value).nbytes)
        put = tier._call_with_retries(
            shard, "put", layer, key, value, nbytes=nbytes
        )
        if put is _UNREACHABLE:
            tier._shard_stats[shard]["dropped_admits"] += 1
            tier._deletes.setdefault(shard, []).append((layer, key))
            if tier._obs.active:
                tier._obs.on_audit(
                    "drop", key, tier._sources[layer], reason="rpc_failed"
                )
            return False
        self.loc[key] = shard
        return True

    def delete(self, key: int) -> None:
        """Forget ``key`` and queue its payload's delete — flushed now
        outside a :meth:`ShardedCacheClient.fetch_many` call, riding
        the shard's next frame inside one."""
        tier = self._tier
        self.ahead.pop(key, None)
        shard = self.loc.pop(key, None)
        if shard is not None:
            tier._deletes.setdefault(shard, []).append((self._layer, int(key)))
            if not tier._batch_open:
                tier._flush(shard)

    def peek(self, key: int) -> Optional[Any]:
        """Payload read that moves no hit counter (one ``get_many``
        frame); None on failure."""
        shard = self.loc.get(key)
        if shard is None:
            return None
        frame = self._tier._call_with_retries(
            shard, "get_many", [(self._layer, key)]
        )
        if frame is _UNREACHABLE:
            self._tier.degraded_lookups += 1
            return None
        return frame[0]

    def export(self, keys: Sequence[int]) -> List[Any]:
        """Payloads of ``keys``, one ``get_many`` frame per owning shard.
        Raises on an unreachable shard or a missing payload — a
        checkpoint must be exact or not taken at all."""
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
        """Replace the layer's payloads: queue and flush the current
        residents' deletes (what fails stays queued for the next
        frame), then place every entry per the current ring. Raises if
        the shard tier is unreachable — a restore must be complete or
        not happen."""
        tier, layer = self._tier, self._layer
        for k, shard in self.loc.items():
            tier._deletes.setdefault(shard, []).append((layer, k))
        self.loc.clear()  # first: _take drops keys the map still places
        for shard in list(tier._deletes):
            tier._flush(shard)
        placed: Dict[int, Dict[int, Any]] = {}
        for k, payload in entries.items():
            shard = self.loc[k] = tier.ring.shard_for(k)
            placed.setdefault(shard, {})[k] = payload
        for shard, part in placed.items():
            tier._call_or_raise(shard, "put_many", layer, part)


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
    dropped_admits / degraded_lookups / rpc_retries:
        Failed payload puts (metadata untouched), failed payload reads
        served as misses, and retried attempts.
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
        # (placement, the delete queues and the audit read them), written
        # by the layers' stores.
        self._loc: Dict[str, Dict[int, int]] = {}
        super().__init__(total_capacity, imp_ratio, layers)
        # layer name -> the source it serves as (audit events name it).
        self._sources = {l.name: l.source.value for l in self.layers}
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
        # shard -> (layer, key) deletes queued for it, in queueing order;
        # a shard is absent while its queue is empty.
        self._deletes: Dict[int, List[Tuple[str, int]]] = {}
        self._batch_open = False  # inside a fetch_many call
        self._shard_stats: Dict[int, Counter] = defaultdict(Counter)
        self.degraded_lookups = 0
        self._rpc_seq = 0  # deterministic per-request id for jitter

    def _payload_store(self, layer: str) -> ShardStore:
        return ShardStore(self, layer, self._loc.setdefault(layer, {}))

    @property
    def dropped_admits(self) -> int:
        """Failed payload puts: the per-shard ledger's sum."""
        return sum(ss["dropped_admits"] for ss in self._shard_stats.values())

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
        callers degrade on it. The deletes queued for ``shard`` leave in
        the same frame (``after_deletes``), executed *before* ``method``;
        if the request fails they go back in the queue.
        """
        shard = int(shard)
        carried = self._take(shard)
        if carried:
            method, args = "after_deletes", (carried, method, *args)
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
        if carried:
            self._deletes[shard] = carried  # _take emptied it
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

    def _take(self, shard: int) -> List[Tuple[str, int]]:
        """Empty ``shard``'s delete queue and answer what it held, less
        the keys that have since re-landed on that shard — deleting
        them would destroy a live payload."""
        return [
            (layer, key) for layer, key in self._deletes.pop(shard, ())
            if self._loc[layer].get(key) != shard
        ]

    def _flush(self, shard: int) -> None:
        """Send ``shard``'s queued deletes as one ``bulk_delete``: a
        single breaker-gated attempt, never raises. A failure puts them
        back in the queue (a timed-out delete may have executed; deletes
        are idempotent, so repeating it is harmless)."""
        entries = self._take(shard)
        if not entries:
            return
        breaker = self.breakers[shard]
        if breaker.allow(self.clock.total_seconds):
            try:
                self.transport.call(shard, "bulk_delete", entries)
            except _ATTEMPT_ERRORS:
                breaker.record_failure(self.clock.total_seconds)
            else:
                breaker.record_success(self.clock.total_seconds)
                return
        self._deletes[shard] = entries  # _take emptied it

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
        that stays the definition) after reading ahead, in one
        ``get_many`` frame per shard, what those requests would read one
        RPC each. Purely an accelerator: a buffered payload whose key an
        earlier request of the batch evicted is dropped unread, and a
        frame that fails buffers nothing, so its keys take the per-key
        path with its retries, degradation and counters. The batch's
        victim deletes stay queued and ride the shard's later frames
        (see :meth:`_call_with_retries`); leftovers leave as one
        ``bulk_delete`` per shard when the call ends. The buffers are
        empty again on return *and* on raise; with an observer the whole
        call is one ``fetch_batch`` span.
        """
        indices = [int(i) for i in indices]
        obs = self._obs
        span = (
            obs.span_start("fetch_batch", self.clock.total_seconds, n=len(indices))
            if obs.active else None
        )
        stores = {layer.name: layer.store for layer in self.layers}
        frames = prefetched = 0
        self._batch_open = True
        try:
            for shard, entries in self._plan_reads(indices).items():
                frames += 1
                payloads = self._call_with_retries(shard, "get_many", entries)
                if payloads is _UNREACHABLE:
                    continue
                for (layer, key), payload in zip(entries, payloads):
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
            self._batch_open = False
            for shard in list(self._deletes):
                self._flush(shard)
            if span is not None:
                obs.span_end(
                    span, self.clock.total_seconds, frames=frames,
                    prefetched=prefetched, unused=unused,
                )

    def _plan_reads(
        self, indices: Sequence[int]
    ) -> Dict[int, List[Tuple[str, int]]]:
        """``{shard: [(layer, key), ...]}``: from metadata alone, the
        payload each request would read if served now — the first layer
        that names a key it holds a payload for. A request a layer would
        answer with a random draw is planned no further; it takes the
        per-key path."""
        plan: Dict[int, Dict[Tuple[str, int], None]] = {}
        for index in indices:
            for layer in self.layers:
                key = layer.serve_key(index)
                shard = None if key is None else self._loc[layer.name].get(key)
                if shard is not None:
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
        missing from the shard its metadata points at."""
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
                dropped_admits=ss["dropped_admits"],
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
