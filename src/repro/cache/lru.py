"""Least-recently-used cache (the paper's end-to-end Baseline policy)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.cache.base import Cache

__all__ = ["LRUCache"]


class LRUCache(Cache):
    """Classic LRU over an ordered dict (most recent at the end)."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._items: OrderedDict[Any, Any] = OrderedDict()

    def _lookup(self, key: Any) -> Optional[Any]:
        if key not in self._items:
            return None
        self._items.move_to_end(key)
        return self._items[key]

    def _insert(self, key: Any, value: Any) -> None:
        self._items[key] = value
        self._items.move_to_end(key)

    def _evict_one(self) -> Any:
        key, _ = self._items.popitem(last=False)
        return key
