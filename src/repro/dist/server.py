"""Shard partition servers.

A :class:`CacheShardServer` owns one partition of the payload bytes for
every cache layer, keyed by ``(layer, key)`` where ``layer`` is the
layer's name (``"imp"``, ``"hom"``, iCache's ``"lsec"``). It is
deliberately *dumb*: all policy decisions (admission, eviction order, FIFO
turnover, the capacity split, which node covers a request) live in the
cache layers of the :class:`~repro.dist.client.ShardedCacheClient`; the
server is a keyed payload store. It keeps no hit counters: what a read
*served* is known only to the client, which may read ahead and discard.

Every mutation is a write of ``(layer, key, payload)`` — a ``None``
payload deletes — and is **idempotent** (writes overwrite, deletes of
absent keys are no-ops), because the RPC channel's timeout semantics are
ambiguous (a timed-out call may have executed) and the client puts a
failed frame's writes back in its queue to send again.
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

    # -- multi-key frames -------------------------------------------------
    def get_many(self, entries: Iterable[Tuple[str, int]]) -> List[Optional[Any]]:
        """Read-only: the payload (or ``None``) of each ``(layer, key)``,
        in order, across layers."""
        return [self.get(layer, key) for layer, key in entries]

    def bulk_write(self, writes: Iterable[Tuple[str, int, Any]]) -> None:
        """Apply ``(layer, key, payload)`` writes in order: store the
        payload, or drop the key when it is ``None`` (idempotent)."""
        for layer, key, payload in writes:
            if payload is None:
                self._stores[layer].pop(int(key), None)
            else:
                self._stores[layer][int(key)] = payload

    def after_writes(
        self, writes: Iterable[Tuple[str, int, Any]], method: str, *args: Any
    ) -> Any:
        """One frame, explicit order: apply ``writes``, *then* run
        ``method(*args)`` — a read riding with the write of its own key
        sees the payload just written. Idempotent when ``method`` is."""
        self.bulk_write(writes)
        return getattr(self, method)(*args)

    # -- introspection ----------------------------------------------------
    def keys(self, layer: str) -> List[int]:
        """Resident keys of one layer (insertion order)."""
        return list(self._stores[layer].keys())
