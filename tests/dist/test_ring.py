"""Consistent-hash ring: determinism, pinned placement, balance."""

from collections import Counter

import pytest

from repro.dist import ring as ring_module
from repro.dist.ring import ConsistentHashRing
from repro.utils.hashing import splitmix64

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


def test_placement_is_pinned():
    """The ring's hashing is part of the placement contract: every key
    stays on the shard it has always used."""
    ring = ConsistentHashRing(3)
    assert [ring.shard_for(k) for k in range(12)] == [
        1, 1, 1, 2, 0, 0, 1, 0, 0, 1, 0, 0,
    ]
    assert Counter(ring.shard_for(k) for k in KEYS) == {
        0: 1834, 1: 1711, 2: 1455,
    }


def test_balance_is_reasonable_with_default_vnodes():
    ring = ConsistentHashRing(4)
    counts = Counter(ring.shard_for(k) for k in KEYS)
    mean = len(KEYS) / 4
    # Consistent hashing is not perfectly uniform; 64 vnodes should keep
    # every shard within a loose factor of the mean.
    for c in counts.values():
        assert 0.3 * mean < c < 2.5 * mean


def test_different_seeds_give_different_placements(monkeypatch):
    def owners(seed):
        monkeypatch.setattr(ring_module, "SEED", seed)
        ring = ConsistentHashRing(4)
        return [ring.shard_for(k) for k in KEYS[:200]]

    assert owners(1) != owners(2)


def test_validation():
    with pytest.raises(ValueError):
        ConsistentHashRing(0)
