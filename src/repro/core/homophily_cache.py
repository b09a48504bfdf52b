"""Homophily Cache (paper §4.2-2).

Stores high-degree graph nodes together with their neighbor-ID lists. A
request for sample ``i`` that appears in some cached node's neighbor list is
served that node's payload *as a substitute* — semantically similar samples
"generally have similar effects on model accuracy", so the substitution
saves a remote fetch at negligible accuracy cost.

Updates are FIFO and happen once per batch with the batch's highest-degree
node ("this ensures that all samples are regularly replaced, thereby
fostering greater diversity in the training data").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cache.base import Cache, FetchSource

__all__ = ["HomophilyCache"]


class HomophilyCache(Cache):
    """FIFO cache of (high-degree node, payload, neighbor-ID list).

    The layer owns the FIFO order, the neighbor lists, and the cover map;
    node payloads live in ``store``
    (:class:`~repro.cache.payload_store.PayloadStore`, default an
    in-process dict). Inserts are *payload first* (a failed ``store.put``
    changes nothing), and a cached node whose payload the store cannot
    produce is served as a miss.

    It admits nothing on a miss: it is filled once per batch through
    :meth:`update`.
    """

    name = "hom"
    source = FetchSource.HOMOPHILY

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        # key -> neighbor id tuple; OrderedDict gives FIFO order.
        self._items: OrderedDict[int, Tuple[int, ...]] = OrderedDict()
        # neighbor id -> set of cached node keys listing it.
        self._neighbor_of: Dict[int, Set[int]] = {}
        # key -> insertion counter (FIFO position without walking the
        # FIFO): the newest of a request's covers is the max over them.
        self._seq: Dict[int, int] = {}
        self._next_seq = 0

    # ------------------------------------------------------------------
    def serve_key(self, index: int) -> Optional[int]:
        """Key of the entry a request for ``index`` would be served from:
        ``index`` itself when it is a cached node, else the *most recently
        inserted* node listing it — its embedding neighborhood is the
        freshest — else ``None``. Pure metadata: no payload read, no stats.
        """
        if index in self._items:
            return index
        covers = self._neighbor_of.get(index)
        if not covers:
            return None
        return max(covers, key=self._seq.__getitem__)

    def lookup(self, index: int, score: float = 0.0) -> Optional[Tuple[int, Any]]:
        """Serve ``index`` by substitution (Fig. 9 case 3).

        Returns ``(node_key, payload)`` of :meth:`serve_key`'s entry, or
        ``None``. Records an exact hit (the high-degree node itself was
        requested), a substitute hit, or a miss; a cover whose payload the
        store cannot produce is a miss.
        """
        key = self.serve_key(index)
        substitute = key != index
        payload = (
            None if key is None
            else self.store.get(key, substitute=substitute)
        )
        if payload is None:
            self.stats.misses += 1
            return None
        if substitute:
            self.stats.substitute_hits += 1
            if self._obs.active:
                self._obs.on_audit(
                    "substitute", key, "homophily",
                    requested_id=index, reason="neighbor_cover",
                )
        else:
            self.stats.hits += 1
        return key, payload

    def admit(self, key: int, score: float, payload: Any) -> bool:
        """Refuse: a remote read never enters the Homophily Cache."""
        return False

    # ------------------------------------------------------------------
    def update(self, key: int, payload: Any, neighbor_ids: List[int]) -> bool:
        """Insert the batch's top-degree node (Alg. 1 line 22), FIFO-evicting.

        A node already cached is skipped (the paper only inserts nodes "not
        previously in the Homophily Cache"). Returns True if inserted,
        False also when the store could not take the payload.
        """
        if self.capacity == 0:
            return False
        key = int(key)
        if key in self._items:
            return False
        if not self.store.put(key, payload):
            return False
        while len(self._items) >= self.capacity:
            self._evict("fifo")
        neigh = tuple(int(n) for n in neighbor_ids)
        self._items[key] = neigh
        self._seq[key] = self._next_seq
        self._next_seq += 1
        for n in neigh:
            self._neighbor_of.setdefault(n, set()).add(key)
        self.stats.insertions += 1
        if self._obs.active:
            self._obs.on_homophily_insert(key, len(neigh))
        return True

    def _evict_one(self) -> int:
        key, neigh = self._items.popitem(last=False)
        del self._seq[key]
        for n in neigh:
            owners = self._neighbor_of.get(n)
            if owners is not None:
                owners.discard(key)
                if not owners:
                    del self._neighbor_of[n]
        return key

    def counters(self) -> Dict[str, int]:
        """Insertions and evictions under the metrics names."""
        return {
            "homophily.insertions": self.stats.insertions,
            "homophily.evictions": self.stats.evictions,
        }

    # ------------------------------------------------------------------
    def newest_entry(self) -> Optional[Tuple[int, Any]]:
        """(key, payload) of the most recently inserted node whose payload
        is retrievable, or ``None``.

        The freshest node's embedding neighborhood is the best available
        stand-in when degraded mode must serve *something* for an uncovered
        request.
        """
        for key in reversed(self._items):
            payload = self.store.peek(key)
            if payload is not None:
                return key, payload
        return None

    # ------------------------------------------------------------------
    def _order_state(self) -> List[List[int]]:
        # Each resident's neighbor list, in FIFO order; the cover map and
        # the insertion counters are rebuilt from them.
        return [list(neigh) for neigh in self._items.values()]

    def _load_order(self, neighbors: List[List[int]]) -> None:
        if len(neighbors) != len(self._items):
            raise ValueError("homophily snapshot keys/neighbors mismatch")
        self._items = OrderedDict(
            (int(k), tuple(int(n) for n in neigh))
            for k, neigh in zip(self._items, neighbors)
        )
        self._neighbor_of = {}
        for k, neigh in self._items.items():
            for n in neigh:
                self._neighbor_of.setdefault(n, set()).add(k)
        self._seq = {k: i for i, k in enumerate(self._items)}
        self._next_seq = len(self._seq)
