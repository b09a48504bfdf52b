"""Live ring resizing: batched, retry-safe, interruptible key migration.

When the client's ring is resized, every resident key whose owner
changes must move shards — over the same fault-injected RPC channel as
normal traffic. The protocol per batch (one ``(layer, src, dst)`` group
of keys):

1. ``migrate_out`` on the source — read-only export;
2. ``migrate_in`` on the destination — idempotent overwrite;
3. flip the client's per-key location map to the destination (the
   point of no return: lookups now route to the new shard);
4. ``bulk_delete`` on the source — best-effort; failures park in the
   client's anti-entropy queue.

Because locations only flip after a *successful* ``migrate_in``, and
both migration RPCs are idempotent, a batch can fail at any step and be
replayed wholesale later: a timed-out ``migrate_in`` that secretly
executed is simply overwritten on the retry, and until the flip the
source copy keeps serving lookups. Faults therefore leave batches
**pending**, never half-applied — the chaos suite drives outages through
mid-flight migrations to prove it.

A :class:`MigrationState` is the client's record of an in-flight resize;
``ShardedCacheClient.continue_migration`` drains it (batches are
re-planned against live metadata at execution time, so keys evicted or
re-admitted since planning are handled correctly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple
from collections import deque

from repro.dist.ring import ConsistentHashRing

__all__ = ["MigrationBatch", "MigrationState", "plan_migration"]

#: Keys per migration transfer batch.
BATCH_SIZE = 32


@dataclass(frozen=True)
class MigrationBatch:
    """One planned transfer: ``keys`` of ``layer`` from ``src`` to ``dst``."""

    layer: str
    src: int
    dst: int
    keys: Tuple[int, ...]


@dataclass
class MigrationState:
    """An in-flight ring resize.

    ``pending`` drains front-to-back as batches complete; a batch that
    fails (outage, breaker open, retry budget burned) is rotated to the
    back so one dead shard cannot starve the rest of the migration.
    """

    old_n_shards: int
    new_n_shards: int
    target_ring: ConsistentHashRing
    pending: Deque[MigrationBatch] = field(default_factory=deque)
    planned_moves: int = 0
    moved_keys: int = 0
    failed_batches: int = 0  # batch attempts that failed (will be retried)

    @property
    def done(self) -> bool:
        """True once every planned batch has been applied (or voided)."""
        return not self.pending


def plan_migration(
    old_n_shards: int,
    target_ring: ConsistentHashRing,
    locations: Dict[str, Dict[int, int]],
) -> MigrationState:
    """Plan the batched transfers for a resize.

    ``locations`` maps layer name (``"imp"``/``"hom"``) to the client's
    authoritative ``{key: current_shard}`` map. Keys already on their
    target shard are skipped; the rest are grouped by
    ``(layer, src, dst)`` and chunked into :class:`MigrationBatch` es of
    :data:`BATCH_SIZE` keys.
    """
    state = MigrationState(
        old_n_shards=int(old_n_shards),
        new_n_shards=target_ring.n_shards,
        target_ring=target_ring,
    )
    groups: Dict[Tuple[str, int, int], List[int]] = {}
    for layer, loc in locations.items():
        for key, src in loc.items():
            dst = target_ring.shard_for(key)
            if dst != src:
                groups.setdefault((layer, src, dst), []).append(int(key))
    for (layer, src, dst), keys in sorted(groups.items()):
        state.planned_moves += len(keys)
        for i in range(0, len(keys), BATCH_SIZE):
            state.pending.append(
                MigrationBatch(layer, src, dst, tuple(keys[i : i + BATCH_SIZE]))
            )
    return state
