"""Importance Cache (paper §4.2-1).

"A min-heap manages the cache, evicting the least important samples when
full." Admission happens only after a full miss (paper: "The Importance
Cache is updated only when a sample misses both caches and is fetched from
remote storage"): the incoming sample enters iff the cache has room, or its
score beats the current minimum (Fig. 9 cases 2 vs 4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.base import CacheStats
from repro.core.payload_store import LocalPayloadStore, PayloadStore
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.utils.heap import IndexedMinHeap

__all__ = ["ImportanceCache"]


class ImportanceCache:
    """Score-ordered cache over an indexed min-heap.

    The layer owns the decisions and the metadata (heap, resident-key
    order, stats); payload bytes live in ``store``
    (:class:`~repro.core.payload_store.PayloadStore`, default an
    in-process dict). Writes are *payload first*: an admission changes
    metadata only after ``store.put`` landed, so a failing store can drop
    an admit but never corrupt the heap, and a resident whose payload the
    store cannot produce is served as a miss.
    """

    def __init__(self, capacity: int, store: Optional[PayloadStore] = None) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.store: PayloadStore = LocalPayloadStore() if store is None else store
        self._heap = IndexedMinHeap()
        self._keys: Dict[int, None] = {}  # residents, admission order
        self.stats = CacheStats()
        self._obs = NULL_OBSERVER

    def attach_observer(self, observer: Observer) -> None:
        """Publish admission/rejection/eviction activity to ``observer``."""
        self._obs = observer

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: int) -> bool:
        return key in self._keys

    def get(self, key: int) -> Optional[Any]:
        """Cached payload or ``None`` (records hit/miss)."""
        value = self.store.get(key)  # non-residents were never put
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def min_score(self) -> Optional[float]:
        """Score of the least-important resident, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap.min_priority()

    def admit(self, key: int, value: Any, score: float) -> bool:
        """Offer a freshly fetched sample (Fig. 9 cases 2/4).

        Returns True if the sample was cached (possibly evicting the current
        minimum), False if rejected for scoring below the minimum or
        dropped because the store could not take the payload.
        """
        obs = self._obs
        if self.capacity == 0:
            return False
        if key in self._keys:
            # Already resident: refresh payload and score.
            if not self.store.put(key, value):
                return False
            self._heap.update(key, score)
            return True
        full = len(self._keys) >= self.capacity
        if full and score <= self._heap.min_priority():
            if obs.active:
                obs.on_admit(key, score, False, None)
                obs.on_audit(
                    "drop", key, "importance", score=score,
                    threshold=self._heap.min_priority(),
                    reason="below_min_score",
                )
            return False
        if not self.store.put(key, value):
            return False
        ev_score = evicted = None
        if full:
            ev_score, evicted = self._heap.pop()
            del self._keys[evicted]
            self.stats.evictions += 1
            self.store.delete(evicted)
        self._heap.push(key, score)
        self._keys[key] = None
        self.stats.insertions += 1
        if obs.active:
            obs.on_admit(key, score, True, evicted)
            if full:
                obs.on_audit(
                    "evict", evicted, "importance", score=ev_score,
                    threshold=score, requested_id=key, reason="displaced",
                )
        return True

    def update_score(self, key: int, score: float) -> None:
        """Refresh a resident's priority after a global-score update.

        No-op for absent keys (scores update for many samples per batch,
        only some of which are cached).
        """
        if key in self._keys:
            self._heap.update(key, score)

    def shrink_to(self, capacity: int) -> List[int]:
        """Reduce capacity, evicting least-important residents first.

        Returns evicted keys (the Elastic Cache Manager reallocates their
        space to the Homophily Cache).
        """
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        obs = self._obs
        evicted = []
        while len(self._keys) > capacity:
            _, key = self._heap.pop()
            del self._keys[key]
            self.stats.evictions += 1
            if obs.active:
                obs.on_evict("importance", key, "shrink")
            self.store.delete(key)
            evicted.append(key)
        self.capacity = capacity
        return evicted

    def grow_to(self, capacity: int) -> None:
        """Raise capacity (no eviction needed)."""
        if capacity < self.capacity:
            raise ValueError("grow_to cannot shrink; use shrink_to")
        self.capacity = capacity

    def keys(self) -> List[int]:
        """Resident sample ids in admission order."""
        return list(self._keys)

    def scores_snapshot(self) -> List[Tuple[int, float]]:
        """(key, score) for all residents (diagnostics)."""
        return [(k, self._heap.priority(k)) for k in self._keys]

    def peek_min(self) -> Optional[Tuple[int, Any]]:
        """(key, payload) of the least-important resident, or ``None``
        when empty or its payload is unavailable.

        Degraded-mode serving uses this as a deterministic last-resort
        substitute source when the remote tier is down.
        """
        if not self._heap:
            return None
        _, key = self._heap.peek()
        payload = self.store.peek(key)
        return None if payload is None else (key, payload)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Exact snapshot: payloads, heap layout, stats.

        Residents are recorded in admission order; the heap snapshot
        keeps its array layout and tie-break counters so eviction order
        after a restore matches an uninterrupted run bit-for-bit.
        """
        keys = list(self._keys)
        if keys:
            payloads = np.stack(
                [np.asarray(p) for p in self.store.export(keys)]
            )
        else:
            payloads = np.empty((0,))
        return {
            "capacity": self.capacity,
            "keys": np.asarray(keys, dtype=np.int64),
            "payloads": payloads,
            "heap": self._heap.state_dict(),
            "stats": self.stats.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.capacity = int(state["capacity"])
        keys = [int(k) for k in np.asarray(state["keys"], dtype=np.int64)]
        payloads = state["payloads"]
        self._heap.load_state_dict(state["heap"])
        if set(self._heap.keys()) != set(keys):
            raise ValueError("importance-cache snapshot heap/value mismatch")
        self._keys = dict.fromkeys(keys)
        self.store.load(
            {k: np.asarray(payloads[i]) for i, k in enumerate(keys)}
        )
        self.stats.load_state_dict(state["stats"])
