"""Random-replacement cache (iCache's L-section, Fig. 6(b)).

A full cache evicts a uniformly random resident and the newcomer takes its
slot; :meth:`RandomReplacementCache.choice` draws a uniformly random
resident. Both draw from the generator the cache is handed — its owning
policy's, so the draws interleave with the policy's own draws in the order
the policy makes them, and the policy's checkpointed generator state covers
them.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.cache.base import Cache

__all__ = ["RandomReplacementCache"]


class RandomReplacementCache(Cache):
    """Evict a uniformly random resident; serve random residents on demand."""

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        super().__init__(capacity)
        self._rng = rng
        self._slots: List[Any] = []  # residents; every draw indexes this
        self._free: Optional[int] = None  # slot the last eviction vacated

    def _insert(self, key: Any) -> None:
        if self._free is None:
            self._slots.append(key)
        else:
            self._slots[self._free] = key
            self._free = None
        self._items[key] = None

    def _evict_one(self) -> Any:
        if self._free is not None:  # a resize: the last victim's slot is empty
            del self._slots[self._free]
        self._free = int(self._rng.integers(len(self._slots)))
        victim = self._slots[self._free]
        del self._items[victim]
        return victim

    def resize(self, capacity: int) -> List[Any]:
        evicted = super().resize(capacity)
        if self._free is not None:  # no newcomer takes the last victim's slot
            del self._slots[self._free]
            self._free = None
        return evicted

    def choice(self) -> Tuple[Any, Any]:
        """A uniformly random resident ``(key, payload)``; stats untouched
        (``None`` payload if the store lost it)."""
        key = self._slots[int(self._rng.integers(len(self._slots)))]
        return key, self.store.get(key, substitute=True)

    def _order_state(self) -> List[Any]:
        return list(self._slots)

    def _load_order(self, state: List[Any]) -> None:
        self._slots = list(state)
        self._free = None
