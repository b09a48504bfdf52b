"""Cache interface and hit/miss accounting.

Capacity is measured in *items*, matching the paper's "cache size as a
percentage of the dataset" framing (all samples in one dataset have equal
size). ``CacheStats`` also tracks *substitute hits* — requests served with a
different-but-similar sample via the Homophily Cache, which the paper counts
toward the total hit ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["Cache", "CacheStats"]


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

    @property
    def exact_hit_ratio(self) -> float:
        """Hit ratio counting only exact (non-substitute) hits."""
        req = self.requests
        if req == 0:
            return 0.0
        return self.hits / req

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = 0
        self.misses = 0
        self.substitute_hits = 0
        self.evictions = 0
        self.insertions = 0
        self.degraded_serves = 0

    def merge(self, other: "CacheStats") -> None:
        """Add another stats object's counters into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.substitute_hits += other.substitute_hits
        self.evictions += other.evictions
        self.insertions += other.insertions
        self.degraded_serves += other.degraded_serves

    def state_dict(self) -> dict:
        """Serializable counter snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "substitute_hits": self.substitute_hits,
            "evictions": self.evictions,
            "insertions": self.insertions,
            "degraded_serves": self.degraded_serves,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        Snapshots written before degraded serves got a dedicated counter
        lack the key; they load as zero.
        """
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.substitute_hits = int(state["substitute_hits"])
        self.evictions = int(state["evictions"])
        self.insertions = int(state["insertions"])
        self.degraded_serves = int(state.get("degraded_serves", 0))


class Cache:
    """Abstract keyed cache with item-count capacity.

    Residents live in ``_items`` (key -> value). Subclasses implement
    ``_lookup`` (policy bookkeeping on access) and ``_insert``/``_evict_one``,
    and snapshot any eviction-order state ``_items`` does not already
    carry through ``_order_state``/``_load_order``. ``get``/``put``
    maintain the shared stats.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._items: Dict[Any, Any] = {}

    # -- required policy hooks -----------------------------------------
    def _lookup(self, key: Any) -> Optional[Any]:
        raise NotImplementedError

    def _insert(self, key: Any, value: Any) -> None:
        raise NotImplementedError

    def _evict_one(self) -> Any:
        """Remove one item per policy; returns the evicted key."""
        raise NotImplementedError

    def _order_state(self) -> Any:
        """Eviction-order state beyond ``_items``' own order (default none)."""
        return None

    def _load_order(self, state: Any) -> None:
        """Restore what :meth:`_order_state` returned."""

    # -- shared interface ----------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Any) -> bool:
        return key in self._items

    def keys(self) -> List[Any]:
        """Resident keys in ``_items`` order (LRU: least recent first)."""
        return list(self._items)

    def get(self, key: Any) -> Optional[Any]:
        """Return the cached value or ``None``; updates stats."""
        value = self._lookup(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Insert ``key``; evicts per policy when at capacity.

        A zero-capacity cache silently drops all inserts.
        """
        if self.capacity == 0:
            return
        if key in self:
            self._insert(key, value)  # refresh in place
            return
        while len(self) >= self.capacity:
            self._evict_one()
            self.stats.evictions += 1
        self._insert(key, value)
        self.stats.insertions += 1

    # -- checkpointing -------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Exact snapshot: residents and values in ``_items`` order, the
        subclass's eviction-order state, and the stats — so a restored
        cache evicts what the uninterrupted one would."""
        keys = list(self._items)
        values = [np.asarray(v) for v in self._items.values()]
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
        self._items = type(self._items)(zip(state["keys"], state["values"]))
        self._load_order(state["order"])
        self.stats.load_state_dict(state["stats"])
