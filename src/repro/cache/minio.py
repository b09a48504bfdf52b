"""MinIO static cache (CoorDL, Mohan et al. 2020).

CoorDL's insight: under random sampling every epoch touches the whole
dataset exactly once, so *any* fixed subset of the data gives a hit ratio
equal to the cache fraction — provided cached items are never replaced
(replacement would evict items that will surely be needed and re-fetch
items that were just used). MinIO therefore fills once and never evicts.
"""

from __future__ import annotations

from typing import Any

from repro.cache.base import Cache

__all__ = ["MinIOCache"]


class MinIOCache(Cache):
    """Insert-until-full, never evict, never replace."""

    def _insert(self, key: Any) -> None:
        self._items[key] = None

    def _evict_one(self) -> Any:
        """Only an explicit :meth:`resize` below the occupancy evicts:
        the newest resident goes first, keeping the earliest fill."""
        key, _ = self._items.popitem()
        return key

    def admit(self, key: Any, score: float, payload: Any) -> bool:
        """Keep only while below capacity; drops once full (no eviction)
        and never replaces a resident."""
        if key in self._items or len(self._items) >= self.capacity:
            return False
        return super().admit(key, score, payload)
