"""Least-recently-used cache (the paper's end-to-end Baseline policy)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.cache.base import Cache

__all__ = ["LRUCache"]


class LRUCache(Cache):
    """Classic LRU over an ordered dict (most recent at the end)."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._items: OrderedDict[Any, None] = OrderedDict()

    def _touch(self, key: Any) -> None:
        self._items.move_to_end(key)

    def _insert(self, key: Any) -> None:
        self._items[key] = None

    def _evict_one(self) -> Any:
        key, _ = self._items.popitem(last=False)
        return key
