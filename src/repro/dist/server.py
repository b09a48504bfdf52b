"""Shard partition servers.

A :class:`CacheShardServer` owns one partition of the payload bytes for
both cache layers. It is deliberately *dumb*: all policy decisions
(admission, eviction order, FIFO turnover, the capacity split, which
node covers a request) live in the cache layers of the
:class:`~repro.dist.client.ShardedCacheClient`; the server is a keyed
payload store. It keeps no hit counters: what a read *served* is known
only to the client, which may read ahead and discard.

Every mutating method is **idempotent** — puts overwrite, deletes of
absent keys are no-ops, migration imports overwrite — because the RPC
channel's timeout semantics are ambiguous (a timed-out call may have
executed) and the retry layer may replay any call.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["CacheShardServer"]

_LAYERS = ("imp", "hom")


class CacheShardServer:
    """One shard's partition of the importance + homophily payloads."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = int(shard_id)
        self._stores: Dict[str, Dict[int, Any]] = {"imp": {}, "hom": {}}

    def _store(self, layer: str) -> Dict[int, Any]:
        try:
            return self._stores[layer]
        except KeyError:
            raise ValueError(f"unknown layer {layer!r}; expected {_LAYERS}")

    # -- importance layer ----------------------------------------------
    def imp_get(self, key: int) -> Optional[Any]:
        """Payload of ``key`` or ``None`` (the client treats ``None`` as
        a lost entry and degrades to a miss)."""
        return self._stores["imp"].get(int(key))

    def imp_put(self, key: int, payload: Any) -> None:
        """Insert or overwrite (idempotent)."""
        self._stores["imp"][int(key)] = payload

    def imp_delete(self, key: int) -> None:
        """Remove if present (idempotent)."""
        self._stores["imp"].pop(int(key), None)

    # -- homophily layer ------------------------------------------------
    def hom_get(self, key: int) -> Optional[Any]:
        """Payload of node ``key`` or ``None``."""
        return self._stores["hom"].get(int(key))

    def hom_put(self, key: int, payload: Any) -> None:
        """Insert or overwrite (idempotent)."""
        self._stores["hom"][int(key)] = payload

    def hom_delete(self, key: int) -> None:
        """Remove if present (idempotent)."""
        self._stores["hom"].pop(int(key), None)

    # -- multi-key frames -------------------------------------------------
    def get_many(self, entries: Iterable[Tuple[str, int]]) -> List[Optional[Any]]:
        """Read-only: the payload (or ``None``) of each ``(layer, key)``,
        in order, across both layers."""
        return [self._store(layer).get(int(key)) for layer, key in entries]

    def after_deletes(
        self, deletes: Iterable[Tuple[str, int]], method: str, *args: Any
    ) -> Any:
        """One frame, explicit order: drop ``deletes``, *then* run
        ``method(*args)`` — a put riding with the delete of its own key
        survives. Idempotent when ``method`` is."""
        self.bulk_delete(deletes)
        return getattr(self, method)(*args)

    # -- bulk / migration ------------------------------------------------
    def bulk_delete(self, entries: Iterable[Tuple[str, int]]) -> None:
        """Anti-entropy repair: drop ``(layer, key)`` pairs (idempotent)."""
        for layer, key in entries:
            self._store(layer).pop(int(key), None)

    def migrate_out(self, layer: str, keys: Iterable[int]) -> Dict[int, Any]:
        """Read-only export of the requested keys that are present."""
        store = self._store(layer)
        out: Dict[int, Any] = {}
        for k in keys:
            payload = store.get(int(k))
            if payload is not None:
                out[int(k)] = payload
        return out

    def migrate_in(self, layer: str, entries: Dict[int, Any]) -> None:
        """Import migrated entries, overwriting any stale copies
        (idempotent — safe to replay after an ambiguous timeout)."""
        store = self._store(layer)
        for k, payload in entries.items():
            store[int(k)] = payload

    # -- introspection ----------------------------------------------------
    def occupancy(self, layer: str) -> int:
        """Number of payloads resident in one layer."""
        return len(self._store(layer))

    def keys(self, layer: str) -> List[int]:
        """Resident keys of one layer (insertion order)."""
        return list(self._store(layer).keys())

    def payload_nbytes(self, layer: str, key: int) -> int:
        """Simulated size of one payload (0 if absent)."""
        payload = self._store(layer).get(int(key))
        if payload is None:
            return 0
        return int(np.asarray(payload).nbytes)
