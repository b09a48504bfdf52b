"""Importance Cache (paper §4.2-1).

"A min-heap manages the cache, evicting the least important samples when
full." Admission happens only after a full miss (paper: "The Importance
Cache is updated only when a sample misses both caches and is fetched from
remote storage"): the incoming sample enters iff the cache has room, or its
score beats the current minimum (Fig. 9 cases 2 vs 4).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.base import Cache, FetchSource

__all__ = ["ImportanceCache"]

#: Stale heap entries tolerated beyond one per resident before a rebuild.
_SLACK = 64


class ImportanceCache(Cache):
    """Score-ordered cache over a lazily invalidated ``heapq`` min-heap.

    Every resident has one live priority ``(score, tiebreak)``, the
    tiebreak being its admission count, so equal scores evict the
    earliest admitted first. The heap holds ``(score, tiebreak, key)``
    entries: a priority change pushes a new entry, the superseded one is
    skipped when it surfaces, and the heap is rebuilt from the live
    priorities once its length passes twice the residents plus
    ``_SLACK``. Scores must be finite.

    The layer owns the decisions and the metadata (``_items``: each
    resident's live priority, in admission order; stats); payload bytes
    live in ``store``
    (:class:`~repro.cache.payload_store.PayloadStore`, default an
    in-process dict). Writes are *payload first*: an admission changes
    metadata only after ``store.put`` landed, so a failing store can drop
    an admit but never corrupt the heap, and a resident whose payload the
    store cannot produce is served as a miss.

    The first layer of every IS policy's cache.
    """

    name = "imp"
    source = FetchSource.IMPORTANCE

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._items: Dict[int, Tuple[float, int]] = {}
        self._heap: List[Tuple[float, int, int]] = []
        self._counter = 0  # next admission's tiebreak

    # ------------------------------------------------------------------
    def _min(self) -> Tuple[float, int, int]:
        """The least live ``(score, tiebreak, key)``; call when non-empty.
        Stale entries above it are dropped on the way."""
        heap, live = self._heap, self._items
        while live.get(heap[0][2]) != heap[0][:2]:
            heapq.heappop(heap)
        return heap[0]

    def _evict_one(self) -> int:
        key = self._pop()[1]
        self._compact()
        return key

    def _pop(self) -> Tuple[float, int]:
        """Remove the least-important resident: ``(score, key)``."""
        score, _, key = self._min()
        heapq.heappop(self._heap)
        del self._items[key]
        return score, key

    def _push(self, key: int, score: float, tiebreak: int) -> None:
        """Set ``key``'s live priority (its admission order is kept)."""
        self._items[key] = (score, tiebreak)
        heapq.heappush(self._heap, (score, tiebreak, key))
        self._compact()

    def _entries(self) -> List[Tuple[float, int, int]]:
        """Live ``(score, tiebreak, key)`` in eviction order (a valid heap)."""
        return sorted((s, t, k) for k, (s, t) in self._items.items())

    def _compact(self) -> None:
        if len(self._heap) > 2 * len(self._items) + _SLACK:
            self._heap = self._entries()

    # ------------------------------------------------------------------
    def min_score(self) -> Optional[float]:
        """Score of the least-important resident, or ``None`` when empty."""
        return self._min()[0] if self._items else None

    def refuses(self, score: float) -> bool:
        """Whether :meth:`admit` turns a new key away at ``score``: the
        layer is full and ``score`` does not beat its minimum (a tie
        stays out)."""
        if len(self._items) < self.capacity:
            return False
        return not self._items or score <= self._min()[0]

    def admit(self, key: int, score: float, value: Any) -> bool:
        """Offer a freshly fetched sample (Fig. 9 cases 2/4).

        Returns True if the sample was cached (possibly evicting the current
        minimum), False if rejected for scoring below the minimum or
        dropped because the store could not take the payload.
        """
        obs = self._obs
        if self.capacity == 0:
            return False
        if key in self._items:
            # Already resident: refresh payload and score.
            if not self.store.put(key, value):
                return False
            self.update_score(key, score)
            return True
        full = len(self._items) >= self.capacity
        if self.refuses(score):
            if obs.active:
                obs.on_admit(key, score, False, None)
                obs.on_audit(
                    "drop", key, "importance", score=score,
                    threshold=self._min()[0], reason="below_min_score",
                )
            return False
        if not self.store.put(key, value):
            return False
        ev_score = evicted = None
        if full:
            ev_score, evicted = self._pop()
            self.stats.evictions += 1
            self.store.delete(evicted)
        self._push(key, score, self._counter)
        self._counter += 1
        self.stats.insertions += 1
        if obs.active:
            obs.on_admit(key, score, True, evicted)
            if full:
                obs.on_audit(
                    "evict", evicted, "importance", score=ev_score,
                    threshold=score, requested_id=key, reason="displaced",
                )
        return True

    def update_scores(self, keys: Sequence[int], scores: Sequence[float]) -> None:
        """Refresh residents' priorities after a global-score update.

        Absent keys are skipped (a batch rescores many samples, only some
        of which are cached); a resident keeps its admission tiebreak.
        """
        live = self._items
        for key, score in zip(np.asarray(keys).tolist(),
                              np.asarray(scores, dtype=np.float64).tolist()):
            entry = live.get(key)
            if entry is not None and score != entry[0]:
                self._push(key, score, entry[1])

    def update_score(self, key: int, score: float) -> None:
        """:meth:`update_scores` for one key."""
        self.update_scores((key,), (score,))

    def peek_min(self) -> Optional[Tuple[int, Any]]:
        """(key, payload) of the least-important resident, or ``None``
        when empty or its payload is unavailable.

        Degraded-mode serving uses this as a deterministic last-resort
        substitute source when the remote tier is down.
        """
        if not self._items:
            return None
        key = self._min()[2]
        payload = self.store.peek(key)
        return None if payload is None else (key, payload)

    def check_invariants(self) -> None:
        """Assert that the heap describes the residents (for tests): a
        valid heap holding every live priority, unique admission
        tiebreaks below the counter, and at most twice the residents
        plus ``_SLACK`` entries."""
        heap, live = self._heap, self._items
        assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
        assert set(self._entries()) <= set(heap)
        tiebreaks = {t for _, t in live.values()}
        assert len(tiebreaks) == len(live)
        assert max(tiebreaks, default=-1) < self._counter
        assert len(heap) <= 2 * len(live) + _SLACK

    # ------------------------------------------------------------------
    def _order_state(self) -> Dict[str, Any]:
        # The live priorities in eviction order, with their tiebreaks and
        # the admission counter: eviction after a restore matches an
        # uninterrupted run bit for bit.
        return {
            "entries": [[s, t, k] for s, t, k in self._entries()],
            "counter": self._counter,
        }

    def _load_order(self, state: Dict[str, Any]) -> None:
        # Entries in any order: older snapshots list them in heap-array
        # order.
        live = {int(k): (float(s), int(t)) for s, t, k in state["entries"]}
        keys = [int(k) for k in self._items]
        if set(live) != set(keys):
            raise ValueError("importance-cache snapshot heap/keys mismatch")
        self._items = {k: live[k] for k in keys}
        self._heap = self._entries()
        self._counter = int(state["counter"])
