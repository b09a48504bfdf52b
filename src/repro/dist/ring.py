"""Consistent-hash ring mapping sample keys to shard servers.

splitmix64-hashed virtual nodes on a 64-bit ring. Each shard owns
:data:`VNODES` points whose positions depend only on ``(shard_id, replica,
SEED)``, so a key's shard is a pure function of the key and the shard
count.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple

from repro.utils.hashing import splitmix64

__all__ = ["ConsistentHashRing"]

#: Hash-domain seed; any fixed value works, but every participant of one
#: cache service must agree on it.
SEED = 0x5D15C0DE
#: Virtual nodes per shard; more balance at the cost of a larger sorted
#: point array.
VNODES = 64


class ConsistentHashRing:
    """Key -> shard map over splitmix64 virtual nodes.

    Parameters
    ----------
    n_shards:
        Number of shard servers (ids ``0..n_shards-1``).
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        points: List[Tuple[int, int]] = []
        for shard in range(self.n_shards):
            for replica in range(VNODES):
                h = splitmix64((shard << 32) ^ replica ^ SEED)
                points.append((h, shard))
        points.sort()
        self._hashes = [p[0] for p in points]
        self._shards = [p[1] for p in points]

    # ------------------------------------------------------------------
    def shard_for(self, key: int) -> int:
        """Owning shard of ``key`` (deterministic)."""
        h = splitmix64(int(key) ^ SEED)
        i = bisect_right(self._hashes, h)
        if i == len(self._hashes):
            i = 0  # wrap around the ring
        return self._shards[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConsistentHashRing(n_shards={self.n_shards})"
