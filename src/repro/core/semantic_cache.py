"""Semantic-aware Cache Mechanism (paper §4.2, Fig. 9) — the one serve
path of every policy.

A :class:`SemanticCache` is an ordered list of cache layers (the
:class:`~repro.cache.base.Cache` protocol). A request is offered to
the layers in order; the first that serves it names the
:class:`FetchSource`. A miss in every layer is read from remote storage
and offered to the layers in order for admission, until one keeps it.
SpiderCache's layers follow Fig. 9(b):

1. probe the Importance Cache (case 1: exact hit);
2. probe the Homophily Cache neighbor lists (case 3: substitute hit);
3. fetch from remote storage, then offer the sample to the Importance
   Cache, which admits it iff its importance beats the current minimum
   (cases 2 and 4); the Homophily Cache refuses every offer.

The Homophily Cache is refreshed separately, once per batch, with the
batch's top-degree node (:meth:`update_homophily`). The loss-IS baselines
stack the Importance Cache alone, iCache adds its L-section behind it
(the importance layer refuses a low-score miss, the L-section accepts),
and the classic baselines stack one LRU / LFU / MinIO cache.

The layers decide and keep the metadata; payload bytes sit behind the
:class:`~repro.cache.payload_store.PayloadStore` each layer is given
(:meth:`SemanticCache._payload_store`). The sharded tier
(:class:`~repro.dist.client.ShardedCacheClient`) is this class over a
store that keeps payloads on remote shards, so it makes the same
decisions by construction, for any policy; a store failure can only turn
a hit into a miss or drop an admit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cache.base import Cache, CacheStats, FetchSource
from repro.cache.payload_store import LocalPayloadStore, PayloadStore
from repro.core.homophily_cache import HomophilyCache
from repro.core.importance_cache import ImportanceCache
from repro.obs.observer import NULL_OBSERVER, Observer

__all__ = ["SemanticCache", "FetchOutcome", "split_capacity"]


def split_capacity(total: int, ratio: float) -> int:
    """Importance-layer share of ``total`` at ``ratio``.

    Uses ``floor(total * ratio + 0.5)`` — round-half-up — rather than
    ``round()``: banker's rounding makes the split non-monotone in the
    ratio at .5 boundaries (``round(10 * 0.85) == 8`` but
    ``round(10 * 0.75) == 8`` too), which turned elastic annealing sweeps
    into a sawtooth. Half-up is deterministic and monotone.
    """
    return int(floor(total * ratio + 0.5))


@dataclass
class FetchOutcome:
    """Result of one sample fetch through the cache hierarchy.

    ``served_id`` differs from ``requested_id`` only on substitutions
    (homophily case 3, an iCache random L-sample, degraded serving).
    """

    requested_id: int
    served_id: int
    payload: Any
    source: FetchSource


class SemanticCache:
    """An ordered list of cache layers with a total item budget.

    ``layers`` default to the Fig. 9 pair, the Importance and Homophily
    caches, with ``imp_ratio`` splitting ``total_capacity`` between them;
    the Elastic Cache Manager adjusts it at runtime via
    :meth:`set_imp_ratio`. ``importance`` / ``homophily`` name those layers
    where the cache has them (``None`` otherwise). Given layers are
    adopted empty: each gets its payload store from
    :meth:`_payload_store`.

    Not thread-safe, like everything in ``repro``: one thread drives a
    run, and the layers take no locks.
    """

    def __init__(
        self, total_capacity: int, imp_ratio: float = 0.9,
        layers: Optional[Sequence[Cache]] = None,
    ) -> None:
        if total_capacity < 0:
            raise ValueError("total_capacity must be non-negative")
        if not 0.0 <= imp_ratio <= 1.0:
            raise ValueError("imp_ratio must be in [0, 1]")
        self.total_capacity = int(total_capacity)
        self._imp_ratio = float(imp_ratio)
        if layers is None:
            imp_cap = split_capacity(self.total_capacity, imp_ratio)
            layers = (
                ImportanceCache(imp_cap),
                HomophilyCache(self.total_capacity - imp_cap),
            )
        self.layers: List[Cache] = list(layers)
        for layer in self.layers:
            layer.store = self._payload_store(layer.name)
        self.importance: Optional[ImportanceCache] = next(
            (l for l in self.layers if isinstance(l, ImportanceCache)), None
        )
        self.homophily: Optional[HomophilyCache] = next(
            (l for l in self.layers if isinstance(l, HomophilyCache)), None
        )
        self.stats = CacheStats()  # aggregate over the layers
        # Degraded serving (remote tier unreachable): requests dropped for
        # want of any resident stand-in, and unreachable reads absorbed
        # (by a fetch or by the importance prefetch).
        self.skipped = 0
        self.errors_absorbed = 0
        self._obs = NULL_OBSERVER

    def _payload_store(self, layer: str) -> PayloadStore:
        """Where the layer named ``layer`` keeps its payload bytes
        (called once per layer at construction; subclasses override)."""
        return LocalPayloadStore()

    def attach_observer(self, observer: Observer) -> None:
        """Publish fetch/admission/eviction activity to ``observer``.

        Cascades to the layers and registers :meth:`counters`. Observer
        wiring is runtime-only state — it is never part of :meth:`state_dict`.
        """
        self._obs = observer
        observer.register(self)
        for layer in self.layers:
            layer.attach_observer(observer)

    # ------------------------------------------------------------------
    @property
    def imp_ratio(self) -> float:
        return self._imp_ratio

    def set_imp_ratio(self, ratio: float) -> None:
        """Rebalance layer capacities to a new importance fraction.

        Shrinks whichever layer lost budget (evicting per its own policy)
        before growing the other, keeping the total budget constant.
        """
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("imp_ratio must be in [0, 1]")
        self._imp_ratio = float(ratio)
        imp_cap = split_capacity(self.total_capacity, ratio)
        hom_cap = self.total_capacity - imp_cap
        if imp_cap < self.importance.capacity:
            self.importance.resize(imp_cap)
            self.homophily.resize(hom_cap)
        elif imp_cap > self.importance.capacity:
            self.homophily.resize(hom_cap)
            self.importance.resize(imp_cap)

    # ------------------------------------------------------------------
    def fetch(
        self,
        index: int,
        score: float,
        remote_get: Callable[[int], Any],
    ) -> FetchOutcome:
        """Serve one sample request: the first layer that serves it, else
        ``remote_get`` (invoked only on a miss in every layer), offered to
        the layers in order for admission. A ``remote_get`` that answers
        ``None`` (the remote tier is unreachable) is served degraded.

        ``score`` is the requester's current global importance score, used
        by the layers' lookup and admission decisions.
        """
        obs = self._obs
        for layer in self.layers:
            hit = layer.lookup(index, score)
            if hit is not None:
                key, payload = hit
                if key == index:
                    self.stats.hits += 1
                else:
                    self.stats.substitute_hits += 1
                if obs.active:
                    obs.on_fetch(index, key, layer.source)
                return FetchOutcome(index, key, payload, layer.source)

        payload = remote_get(index)
        if payload is None:
            self.errors_absorbed += 1
            return self._degraded_fetch(index)
        self.stats.misses += 1
        if obs.active:
            obs.on_fetch(index, index, FetchSource.REMOTE)
        for layer in self.layers:
            if layer.admit(index, score, payload):
                break
        return FetchOutcome(index, index, payload, FetchSource.REMOTE)

    def fetch_many(
        self, indices: Sequence[int], scores: Sequence[float],
        remote_get: Callable[[int], Any],
    ) -> List[FetchOutcome]:
        """Serve a batch of requests: by definition :meth:`fetch` per
        request, in order. Subclasses may only make those reads cheaper
        (the sharded tier reads ahead), never decide anything here."""
        return [self.fetch(i, s, remote_get) for i, s in zip(indices, scores)]

    # ------------------------------------------------------------------
    def _degraded_fetch(self, index: int) -> FetchOutcome:
        """Close-enough-beats-nothing serving while the remote tier is down.

        Substitution is *widened* beyond the layers' own lookups: any resident
        homophily node (freshest first, skipping nodes whose payload the
        store cannot produce) may stand in for the request, and failing
        that, the least-important Importance-Cache resident. Only when
        neither layer can serve is the sample skipped — the loader drops it
        from the batch rather than aborting training.

        Accounting: degraded serves go to the dedicated
        ``stats.degraded_serves`` counter only, skips to ``skipped``. They do
        *not* count as ``substitute_hits`` — folding them in silently inflated
        ``hit_ratio``/``exact_hit_ratio`` during outages, making
        fault-campaign hit ratios incomparable to clean runs.
        """
        obs = self._obs
        node = (
            self.homophily.newest_entry() if self.homophily is not None else None
        )
        if node is not None:
            key, payload = node
            self.stats.degraded_serves += 1
            if obs.active:
                obs.on_fetch(index, key, FetchSource.DEGRADED)
                obs.on_audit(
                    "substitute", key, "homophily",
                    requested_id=index, reason="degraded",
                )
            return FetchOutcome(index, key, payload, FetchSource.DEGRADED)
        resident = (
            self.importance.peek_min() if self.importance is not None else None
        )
        if resident is not None:
            key, payload = resident
            self.stats.degraded_serves += 1
            if obs.active:
                obs.on_fetch(index, key, FetchSource.DEGRADED)
                obs.on_audit(
                    "substitute", key, "importance",
                    score=self.importance.min_score(),
                    requested_id=index, reason="degraded",
                )
            return FetchOutcome(index, key, payload, FetchSource.DEGRADED)
        self.stats.misses += 1
        self.skipped += 1
        if obs.active:
            obs.on_fetch(index, index, FetchSource.SKIPPED)
        return FetchOutcome(index, index, None, FetchSource.SKIPPED)

    def update_homophily(
        self, node_key: int, payload: Any, neighbor_ids: List[int]
    ) -> bool:
        """Per-batch Homophily Cache refresh with the top-degree node."""
        return self.homophily.update(node_key, payload, neighbor_ids)

    def update_scores(self, indices: Sequence[int], scores: Sequence[float]) -> None:
        """Propagate one batch's global-score changes to the Importance
        Cache heap."""
        self.importance.update_scores(indices, scores)

    def update_score(self, index: int, score: float) -> None:
        """:meth:`update_scores` for one sample."""
        self.update_scores((index,), (score,))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def counters(self) -> Dict[str, int]:
        """Requests by where they were served, and each layer's admissions
        and evictions, under the metrics names (read by
        :meth:`~repro.obs.observer.Observer.snapshot`)."""
        stats = self.stats
        counters = {
            "cache.fetches": stats.requests + stats.degraded_serves,
            "cache.fetch.remote": stats.misses - self.skipped,
            "cache.fetch.degraded": stats.degraded_serves,
            "cache.fetch.skipped": self.skipped,
        }
        for layer in self.layers:
            served = layer.stats.hits + layer.stats.substitute_hits
            counters[f"cache.fetch.{layer.source.value}"] = served
            counters.update(layer.counters())
        return counters

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Exact snapshot of every layer (keyed by its source), the split,
        and all counters."""
        state = {
            "total_capacity": self.total_capacity,
            "imp_ratio": self._imp_ratio,
            "stats": self.stats.state_dict(),
            "skipped": self.skipped,
            "errors_absorbed": self.errors_absorbed,
        }
        for layer in self.layers:
            state[layer.source.value] = layer.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The layer capacities come from the snapshot (the elastic manager
        may have re-split the cache since construction).
        """
        if int(state["total_capacity"]) != self.total_capacity:
            raise ValueError("semantic-cache snapshot capacity mismatch")
        self._imp_ratio = float(state["imp_ratio"])
        self.stats.load_state_dict(state["stats"])
        self.skipped = int(state["skipped"])
        self.errors_absorbed = int(state["errors_absorbed"])
        for layer in self.layers:
            layer.load_state_dict(state[layer.source.value])
