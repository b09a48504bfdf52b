"""Shard partition servers.

A :class:`CacheShardServer` owns one partition of the payload bytes for
every cache layer, keyed by ``(layer, key)`` where ``layer`` is the
layer's name (``"imp"``, ``"hom"``, iCache's ``"lsec"``). It is
deliberately *dumb*: all policy decisions (admission, eviction order, FIFO
turnover, the capacity split, which node covers a request) live in the
cache layers of the :class:`~repro.dist.client.ShardedCacheClient`; the
server is a keyed payload store. It keeps no hit counters: what a read
*served* is known only to the client, which may read ahead and discard.

Every mutating method is **idempotent** — puts and bulk puts overwrite,
deletes of absent keys are no-ops — because the RPC channel's timeout
semantics are ambiguous (a timed-out call may have executed) and the
retry layer may replay any call.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["CacheShardServer"]


class CacheShardServer:
    """One shard's partition of every cache layer's payloads."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = int(shard_id)
        self._stores: Dict[str, Dict[int, Any]] = defaultdict(dict)

    def get(self, layer: str, key: int) -> Optional[Any]:
        """Payload of ``key`` or ``None`` (the client treats ``None`` as
        a lost entry and degrades to a miss)."""
        return self._stores[layer].get(int(key))

    def put(self, layer: str, key: int, payload: Any) -> None:
        """Insert or overwrite (idempotent)."""
        self._stores[layer][int(key)] = payload

    # -- multi-key frames -------------------------------------------------
    def get_many(self, entries: Iterable[Tuple[str, int]]) -> List[Optional[Any]]:
        """Read-only: the payload (or ``None``) of each ``(layer, key)``,
        in order, across layers."""
        return [self.get(layer, key) for layer, key in entries]

    def after_deletes(
        self, deletes: Iterable[Tuple[str, int]], method: str, *args: Any
    ) -> Any:
        """One frame, explicit order: drop ``deletes``, *then* run
        ``method(*args)`` — a put riding with the delete of its own key
        survives. Idempotent when ``method`` is."""
        self.bulk_delete(deletes)
        return getattr(self, method)(*args)

    # -- bulk ----------------------------------------------------------
    def bulk_delete(self, entries: Iterable[Tuple[str, int]]) -> None:
        """Drop ``(layer, key)`` pairs if present (idempotent) — the
        client's only delete."""
        for layer, key in entries:
            self._stores[layer].pop(int(key), None)

    def put_many(self, layer: str, entries: Dict[int, Any]) -> None:
        """Insert or overwrite every entry of one layer (idempotent —
        safe to replay after an ambiguous timeout)."""
        store = self._stores[layer]
        for k, payload in entries.items():
            store[int(k)] = payload

    # -- introspection ----------------------------------------------------
    def keys(self, layer: str) -> List[int]:
        """Resident keys of one layer (insertion order)."""
        return list(self._stores[layer].keys())
