"""Access traces, offline replay, and the Belady-optimal oracle.

Cache research separates *policy* from *workload* by replaying recorded
access traces. This module provides:

* :class:`AccessTrace` — an ordered record of sample requests with epoch
  boundaries, recordable from any sampler;
* :func:`replay` — run a trace through any cache layer (the
  :class:`~repro.cache.base.Cache` protocol every policy serves through)
  and return its stats (orders of magnitude faster than
  re-training);
* :func:`belady_hit_ratio` — Belady's MIN/OPT oracle (evict the resident
  whose next use is farthest in the future), the theoretical upper bound
  on exact-hit ratio for any eviction policy at a given capacity, replayed
  as one more layer.

The OPT bound contextualizes the paper's Fig.-14 numbers: under a random
permutation trace even the clairvoyant optimum is weak, while an
importance-sampled trace is inherently cacheable — locality is created by
the *sampler*, which is the paper's core thesis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cache.base import Cache, CacheStats

__all__ = ["AccessTrace", "record_trace", "replay", "belady_hit_ratio"]


@dataclass
class AccessTrace:
    """Ordered sample-request record."""

    requests: np.ndarray  # int64 ids in access order
    epoch_bounds: List[int] = field(default_factory=list)  # cumulative ends

    def __post_init__(self) -> None:
        self.requests = np.asarray(self.requests, dtype=np.int64)
        if self.requests.ndim != 1:
            raise ValueError("requests must be 1-D")

    def __len__(self) -> int:
        return int(self.requests.shape[0])

    @property
    def n_epochs(self) -> int:
        return len(self.epoch_bounds) if self.epoch_bounds else 1

    @property
    def unique_count(self) -> int:
        return int(np.unique(self.requests).size)

    def frequency_histogram(self, n_samples: Optional[int] = None) -> np.ndarray:
        """Per-sample access counts."""
        n = n_samples if n_samples is not None else int(self.requests.max()) + 1
        return np.bincount(self.requests, minlength=n)


def record_trace(
    epoch_order_fn: Callable[[int], Sequence[int]], epochs: int
) -> AccessTrace:
    """Record a trace from any epoch-order function (e.g. a policy's
    ``epoch_order`` or a sampler's)."""
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    chunks: List[np.ndarray] = []
    bounds: List[int] = []
    total = 0
    for e in range(epochs):
        order = np.asarray(epoch_order_fn(e), dtype=np.int64)
        chunks.append(order)
        total += order.shape[0]
        bounds.append(total)
    return AccessTrace(np.concatenate(chunks), bounds)


def replay(trace: AccessTrace, cache: Cache) -> CacheStats:
    """Replay a trace through one cache layer with demand-fill on miss:
    ``lookup`` every request, ``admit`` every miss (its id as payload).

    The cache's own stats object is used and returned (reset first).
    """
    cache.stats.reset()
    for i in trace.requests:
        key = int(i)
        if cache.lookup(key) is None:
            cache.admit(key, 0.0, key)
    return cache.stats


class _Clairvoyant(Cache):
    """Belady's MIN as a cache layer: it knows the trace it is replayed
    on, counts the requests its ``lookup`` sees, and evicts the resident
    whose next use is farthest in the future. Lazy heap entries (stale
    next-use values) are skipped on pop by cross-checking the
    authoritative ``_resident_next`` map."""

    def __init__(self, capacity: int, requests: np.ndarray) -> None:
        super().__init__(capacity)
        n = requests.shape[0]
        # _next[i] = index of the next access of requests[i] after i.
        self._next = np.full(n, n + 1, dtype=np.int64)
        last_seen: dict = {}
        for i in range(n - 1, -1, -1):
            key = int(requests[i])
            self._next[i] = last_seen.get(key, n + 1)
            last_seen[key] = i
        self._t = -1  # position of the request being served
        self._resident_next: dict = {}  # key -> authoritative next use
        self._heap: List = []  # (-next_use, key) lazy max-heap

    def lookup(self, index, score: float = 0.0):
        self._t += 1
        return super().lookup(index, score)

    def _touch(self, key) -> None:
        nxt = int(self._next[self._t])
        self._resident_next[key] = nxt
        heapq.heappush(self._heap, (-nxt, key))

    def _insert(self, key) -> None:
        self._items[key] = None
        self._touch(key)

    def _evict_one(self):
        while True:
            neg_nxt, victim = heapq.heappop(self._heap)
            if self._resident_next.get(victim) == -neg_nxt:
                break
        del self._resident_next[victim]
        del self._items[victim]
        return victim


def belady_hit_ratio(trace: AccessTrace, capacity: int) -> float:
    """Hit ratio of Belady's clairvoyant MIN algorithm: :func:`replay`
    through a layer that evicts the resident used farthest in the future.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if len(trace) == 0 or capacity == 0:
        return 0.0
    return replay(trace, _Clairvoyant(capacity, trace.requests)).hit_ratio
