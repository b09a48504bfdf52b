"""Least-frequently-used cache (Fig. 3(b) baseline).

O(1) LFU via frequency buckets of ordered dicts: ties within a frequency are
broken LRU-first, matching common LFU implementations.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Any, Dict

from repro.cache.base import Cache

__all__ = ["LFUCache"]


class LFUCache(Cache):
    """Least-frequently-used cache with O(1) operations."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._freq: Dict[Any, int] = {}
        self._buckets: Dict[int, OrderedDict] = defaultdict(OrderedDict)
        self._min_freq = 0

    def _touch(self, key: Any) -> None:
        f = self._freq[key]
        del self._buckets[f][key]
        if not self._buckets[f]:
            del self._buckets[f]
            if self._min_freq == f:
                self._min_freq = f + 1
        self._freq[key] = f + 1
        self._buckets[f + 1][key] = None

    def _insert(self, key: Any) -> None:
        self._items[key] = None
        self._freq[key] = 1
        self._buckets[1][key] = None
        self._min_freq = 1

    def _evict_one(self) -> Any:
        bucket = self._buckets[self._min_freq]
        key, _ = bucket.popitem(last=False)
        if not bucket:
            del self._buckets[self._min_freq]
            self._min_freq = min(self._buckets, default=0)
        del self._items[key]
        del self._freq[key]
        return key

    def _order_state(self) -> dict:
        # Buckets in ascending frequency, each least-recent first: the
        # order ``_evict_one`` walks.
        order = [k for f in sorted(self._buckets) for k in self._buckets[f]]
        return {
            "keys": order,
            "freq": [self._freq[k] for k in order],
            "min_freq": self._min_freq,
        }

    def _load_order(self, state: dict) -> None:
        self._freq = {}
        self._buckets = defaultdict(OrderedDict)
        for key, f in zip(state["keys"], state["freq"]):
            self._freq[key] = int(f)
            self._buckets[int(f)][key] = None
        self._min_freq = int(state["min_freq"])
