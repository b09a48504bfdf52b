"""Consistent-hash ring: determinism, balance, minimal disruption."""

import pytest

from repro.dist import ring as ring_module
from repro.dist.ring import ConsistentHashRing, splitmix64
from tests.dist.helpers import ring_moves

pytestmark = pytest.mark.dist

KEYS = list(range(5000))


def test_splitmix64_is_deterministic_and_64bit():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) != splitmix64(2)
    for x in (0, 1, 2**63, 2**64 - 1):
        assert 0 <= splitmix64(x) < 2**64


def test_shard_for_is_deterministic_and_in_range():
    ring = ConsistentHashRing(4)
    owners = [ring.shard_for(k) for k in KEYS]
    assert owners == [ring.shard_for(k) for k in KEYS]
    assert set(owners) <= set(range(4))
    # Every shard owns a non-trivial share of a large uniform keyspace.
    for shard in range(4):
        assert owners.count(shard) > 0


def test_partition_groups_every_key_exactly_once():
    ring = ConsistentHashRing(3)
    parts = ring.partition(KEYS[:500])
    flat = sorted(k for keys in parts.values() for k in keys)
    assert flat == KEYS[:500]
    for shard, keys in parts.items():
        assert all(ring.shard_for(k) == shard for k in keys)


def test_balance_is_reasonable_with_default_vnodes():
    ring = ConsistentHashRing(4)
    counts = {s: len(ks) for s, ks in ring.partition(KEYS).items()}
    mean = len(KEYS) / 4
    # Consistent hashing is not perfectly uniform; 64 vnodes should keep
    # every shard within a loose factor of the mean.
    for c in counts.values():
        assert 0.3 * mean < c < 2.5 * mean


def test_growing_the_ring_only_moves_keys_to_new_shards():
    """Minimal disruption: surviving shards' vnode points don't move, so
    a key either stays put or lands on a *new* shard."""
    old = ConsistentHashRing(3)
    new = old.spawn(5)
    moves = ring_moves(old, new, KEYS)
    assert moves  # growth must claim some keys
    assert all(dst in (3, 4) for _, dst in moves.values())
    # And far from all keys move.
    assert len(moves) < len(KEYS) * 0.75


def test_shrinking_only_moves_keys_from_retired_shards():
    old = ConsistentHashRing(5)
    new = old.spawn(3)
    moves = ring_moves(old, new, KEYS)
    assert all(src in (3, 4) for src, _ in moves.values())
    assert all(dst in (0, 1, 2) for _, dst in moves.values())


def test_spawn_preserves_geometry_and_eq():
    ring = ConsistentHashRing(2)
    grown = ring.spawn(4)
    assert grown.n_shards == 4
    assert all(grown.shard_for(k) in (ring.shard_for(k), 2, 3) for k in KEYS)
    assert ring == ConsistentHashRing(2)
    assert ring != grown
    assert ring.__eq__(object()) is NotImplemented


def test_different_seeds_give_different_placements(monkeypatch):
    def owners(seed):
        monkeypatch.setattr(ring_module, "SEED", seed)
        ring = ConsistentHashRing(4)
        return [ring.shard_for(k) for k in KEYS[:200]]

    assert owners(1) != owners(2)


def test_validation():
    with pytest.raises(ValueError):
        ConsistentHashRing(0)
