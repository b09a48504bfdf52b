"""MinIO static cache (CoorDL, Mohan et al. 2020).

CoorDL's insight: under random sampling every epoch touches the whole
dataset exactly once, so *any* fixed subset of the data gives a hit ratio
equal to the cache fraction — provided cached items are never replaced
(replacement would evict items that will surely be needed and re-fetch
items that were just used). MinIO therefore fills once and never evicts.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cache.base import Cache

__all__ = ["MinIOCache"]


class MinIOCache(Cache):
    """Insert-until-full, never evict, never replace."""

    def _lookup(self, key: Any) -> Optional[Any]:
        return self._items.get(key)

    def _insert(self, key: Any, value: Any) -> None:
        self._items[key] = value

    def _evict_one(self) -> Any:  # pragma: no cover - unreachable by design
        raise RuntimeError("MinIO never evicts")

    def put(self, key: Any, value: Any) -> None:
        """Insert only while below capacity; drops once full (no eviction)."""
        if self.capacity == 0 or key in self._items:
            return
        if len(self._items) >= self.capacity:
            return
        self._items[key] = value
        self.stats.insertions += 1
