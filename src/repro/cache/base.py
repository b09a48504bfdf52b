"""The one cache-layer protocol (:class:`Cache`) and its counter type.

Every cache a policy serves through is an ordered list of :class:`Cache`
layers inside one :class:`~repro.core.semantic_cache.SemanticCache`: a
request is offered to the layers in order (``lookup``), a miss is read
from remote storage and offered to the layers in order for admission
(``admit``). SpiderCache's Importance and Homophily caches, iCache's
L-section and the classic LRU / LFU / MinIO / random-replacement caches
are all :class:`Cache` subclasses, so every policy has one serve path and
one set of counters (:class:`CacheStats`).

Capacity is measured in *items*, matching the paper's "cache size as a
percentage of the dataset" framing (all samples in one dataset have equal
size). ``CacheStats`` also tracks *substitute hits* — requests served with a
different sample (a Homophily-Cache neighbour, an iCache random L-sample),
which the paper counts toward the total hit ratio.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.payload_store import LocalPayloadStore, PayloadStore
from repro.obs.observer import NULL_OBSERVER

__all__ = ["Cache", "CacheStats", "FetchSource"]


class FetchSource(str, Enum):
    """Where a request was served from."""

    IMPORTANCE = "importance"
    HOMOPHILY = "homophily"
    #: iCache's L-section: an exact hit there, or a uniformly random
    #: resident L-sample standing in for the request.
    L_SECTION = "l_section"
    REMOTE = "remote"
    #: Degraded-mode substitute: the remote tier was down and the request
    #: missed every layer, so a *widened* substitution served whatever
    #: semantically-nearby payload was resident.
    DEGRADED = "degraded"
    #: Degraded-mode skip: remote down and nothing cached at all; the
    #: sample is dropped from its batch instead of crashing the run.
    SKIPPED = "skipped"


@dataclass
class CacheStats:
    """Counters for hit-ratio reporting.

    ``degraded_serves`` counts degraded-mode substitutions (remote tier
    down, widened stand-in served). They are deliberately *excluded* from
    ``requests``/``hit_ratio``: a degraded serve is an availability event,
    not a cache hit, and folding it in would make outage-epoch hit ratios
    incomparable to clean runs.
    """

    hits: int = 0
    misses: int = 0
    substitute_hits: int = 0
    evictions: int = 0
    insertions: int = 0
    degraded_serves: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.substitute_hits

    @property
    def hit_ratio(self) -> float:
        """Total hit ratio including substitute hits; 0.0 when idle."""
        req = self.requests
        if req == 0:
            return 0.0
        return (self.hits + self.substitute_hits) / req

    def reset(self) -> None:
        """Zero every counter."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, 0)

    def state_dict(self) -> dict:
        """Serializable counter snapshot."""
        return dataclasses.asdict(self)

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.substitute_hits = int(state["substitute_hits"])
        self.evictions = int(state["evictions"])
        self.insertions = int(state["insertions"])
        self.degraded_serves = int(state["degraded_serves"])


class Cache:
    """One cache layer, and the classic keyed layer: exact hits only,
    every miss admitted (demand fill), evicting per the subclass's order
    when full.

    The protocol every layer keeps: :meth:`lookup` (``(served_key,
    payload)`` or ``None``), :meth:`serve_key` (from metadata alone, the
    key ``lookup`` would read; ``None`` also when it would draw at
    random), :meth:`admit`, :meth:`resize`, :meth:`counters` and the
    checkpoint pair, with its counts in ``stats`` and its payloads in
    ``store`` (which the owning cache assigns: in-process, or on the
    shard tier under the key ``name``). Serves are published as
    ``source``.

    Residents live in ``_items`` (key -> the subclass's per-resident
    metadata, ``None`` for the classic caches, in the subclass's order);
    payloads live in ``store``. Subclasses implement ``_insert`` (a new
    resident) and ``_evict_one`` (remove and return the victim), may
    refresh a resident's position on a hit in ``_touch``, and snapshot
    any eviction-order state ``_items`` does not already carry through
    ``_order_state``/``_load_order``. A classic cache's serves are
    published as importance-layer serves: it is the exact tier.
    """

    name = "imp"
    source = FetchSource.IMPORTANCE

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.store: PayloadStore = LocalPayloadStore()
        self.stats = CacheStats()
        self._items: Dict[Any, Any] = {}
        self._obs = NULL_OBSERVER

    # -- required policy hooks -----------------------------------------
    def _insert(self, key: Any) -> None:
        raise NotImplementedError

    def _evict_one(self) -> Any:
        """Remove one resident per policy; returns its key."""
        raise NotImplementedError

    def _touch(self, key: Any) -> None:
        """A resident was served or refreshed (default: order unchanged)."""

    def _order_state(self) -> Any:
        """Eviction-order state beyond ``_items``' own order (default none)."""
        return None

    def _load_order(self, state: Any) -> None:
        """Restore what :meth:`_order_state` returned."""

    def _evict(self, reason: str) -> Any:
        """Evict one resident outside the admit path (FIFO turnover, a
        shrink): counted, published, its payload deleted."""
        key = self._evict_one()
        self.stats.evictions += 1
        if self._obs.active:
            self._obs.on_evict(self.source.value, key, reason)
        self.store.delete(key)
        return key

    # -- the layer protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Any) -> bool:
        return key in self._items

    def lookup(self, index: Any, score: float = 0.0) -> Optional[Tuple[Any, Any]]:
        """``(index, payload)`` on an exact hit, else ``None``; counts
        the hit or miss."""
        payload = self.store.get(index)  # non-residents were never put
        if payload is None:
            self.stats.misses += 1
            return None
        self._touch(index)
        self.stats.hits += 1
        return index, payload

    def serve_key(self, index: Any) -> Optional[Any]:
        """``index`` if resident (the key :meth:`lookup` would read)."""
        return index if index in self._items else None

    def admit(self, key: Any, score: float, payload: Any) -> bool:
        """Keep ``key`` (refreshing a resident in place), evicting per
        policy when full. A zero-capacity cache, or a store that cannot
        take the payload, keeps nothing."""
        if self.capacity == 0 or not self.store.put(key, payload):
            return False
        if key in self._items:
            self._touch(key)
            return True
        while len(self._items) >= self.capacity:
            self.store.delete(self._evict_one())
            self.stats.evictions += 1
        self._insert(key)
        self.stats.insertions += 1
        return True

    def resize(self, capacity: int) -> List[Any]:
        """Set the capacity, evicting per policy down to it; the evicted
        keys."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        evicted = []
        while len(self._items) > capacity:
            evicted.append(self._evict("shrink"))
        self.capacity = int(capacity)
        return evicted

    def attach_observer(self, observer: Any) -> None:
        """Publish the layer's decisions to ``observer``."""
        self._obs = observer

    def counters(self) -> Dict[str, int]:
        """Admissions and evictions under the metrics names."""
        prefix = self.source.value
        return {
            f"{prefix}.admitted": self.stats.insertions,
            f"{prefix}.evictions": self.stats.evictions,
        }

    # -- checkpointing -------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Exact snapshot: residents and payloads in ``_items`` order, the
        subclass's eviction-order state, and the stats — so a restored
        cache evicts what the uninterrupted one would."""
        keys = list(self._items)
        values = [np.asarray(v) for v in self.store.export(keys)]
        return {
            "capacity": self.capacity,
            "keys": keys,
            "values": np.stack(values) if values else np.empty((0,)),
            "order": self._order_state(),
            "stats": self.stats.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.capacity = int(state["capacity"])
        self._items = type(self._items)((k, None) for k in state["keys"])
        self._load_order(state["order"])
        self.store.load(dict(zip(state["keys"], state["values"])))
        self.stats.load_state_dict(state["stats"])
