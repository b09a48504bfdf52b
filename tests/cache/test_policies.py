"""Classic cache policy tests: LRU, LFU, MinIO + shared stats, driven
through the cache-layer protocol (``lookup`` / ``admit``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheStats
from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache
from repro.cache.random_replacement import RandomReplacementCache
from repro.resilience.state import load_state, save_state


def put(c, key, value):
    """Offer ``key`` for admission, as a cache does after a miss."""
    return c.admit(key, 0.0, value)


def get(c, key):
    """The payload ``lookup`` serves for ``key``, or ``None``."""
    hit = c.lookup(key)
    return None if hit is None else hit[1]


# ----------------------------------------------------------------------
# CacheStats
# ----------------------------------------------------------------------
def test_stats_hit_ratio():
    s = CacheStats(hits=3, misses=1, substitute_hits=1)
    assert s.requests == 5
    assert s.hit_ratio == pytest.approx(0.8)


def test_stats_idle_zero():
    assert CacheStats().hit_ratio == 0.0


def test_stats_reset():
    a = CacheStats(hits=4, misses=6, evictions=1)
    a.reset()
    assert a.requests == 0


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------
def test_lru_evicts_least_recent():
    c = LRUCache(2)
    put(c, "a", 1)
    put(c, "b", 2)
    get(c, "a")  # refresh a
    put(c, "c", 3)  # evicts b
    assert "a" in c and "c" in c and "b" not in c


def test_lru_get_miss_counts():
    c = LRUCache(2)
    assert get(c, "x") is None
    assert c.stats.misses == 1
    put(c, "x", 1)
    assert get(c, "x") == 1
    assert c.stats.hits == 1


def test_lru_refresh_existing_key():
    c = LRUCache(2)
    put(c, "a", 1)
    put(c, "a", 2)
    assert get(c, "a") == 2
    assert len(c) == 1


def test_lru_zero_capacity_drops():
    c = LRUCache(0)
    put(c, "a", 1)
    assert len(c) == 0


def test_lru_negative_capacity():
    with pytest.raises(ValueError):
        LRUCache(-1)


def test_lru_eviction_count():
    c = LRUCache(1)
    put(c, "a", 1)
    put(c, "b", 2)
    assert c.stats.evictions == 1


# ----------------------------------------------------------------------
# LFU
# ----------------------------------------------------------------------
def test_lfu_evicts_least_frequent():
    c = LFUCache(2)
    put(c, "a", 1)
    put(c, "b", 2)
    get(c, "a")
    get(c, "a")
    put(c, "c", 3)  # evicts b (freq 1 < a's 3)
    assert "a" in c and "c" in c and "b" not in c


def test_lfu_tie_broken_lru():
    c = LFUCache(2)
    put(c, "a", 1)
    put(c, "b", 2)
    put(c, "c", 3)  # a and b tied at freq 1; a was inserted first
    assert "a" not in c and "b" in c


def test_lfu_frequency_accessor():
    c = LFUCache(3)
    put(c, "a", 1)
    get(c, "a")
    get(c, "a")
    assert c._freq["a"] == 3  # insert + two hits


def test_lfu_update_refreshes_value_and_freq():
    c = LFUCache(2)
    put(c, "a", 1)
    put(c, "a", 5)
    assert get(c, "a") == 5
    assert c._freq["a"] >= 2


# ----------------------------------------------------------------------
# MinIO
# ----------------------------------------------------------------------
def test_minio_never_evicts():
    c = MinIOCache(2)
    put(c, "a", 1)
    put(c, "b", 2)
    put(c, "c", 3)  # dropped, not inserted
    assert "a" in c and "b" in c and "c" not in c
    assert c.stats.evictions == 0


def test_minio_hit_after_fill():
    c = MinIOCache(1)
    put(c, "a", 1)
    assert get(c, "a") == 1
    assert get(c, "b") is None


def test_minio_no_replacement_of_existing():
    c = MinIOCache(2)
    put(c, "a", 1)
    put(c, "a", 99)  # MinIO never replaces
    assert get(c, "a") == 1


def test_minio_steady_state_hit_ratio():
    """Under random sampling MinIO's hit ratio equals the cache fraction."""
    rng = np.random.default_rng(0)
    n, cap = 1000, 300
    c = MinIOCache(cap)
    # Fill epoch.
    for i in rng.permutation(n):
        if get(c, int(i)) is None:
            put(c, int(i), i)
    c.stats.reset()
    for _ in range(3):
        for i in rng.permutation(n):
            if get(c, int(i)) is None:
                put(c, int(i), i)
    assert c.stats.hit_ratio == pytest.approx(cap / n, abs=0.001)


# ----------------------------------------------------------------------
# Random replacement (iCache's L-section)
# ----------------------------------------------------------------------
def test_random_replacement_newcomer_takes_the_victims_slot():
    c = RandomReplacementCache(3, rng=np.random.default_rng(0))
    for k in "abc":
        put(c, k, k)
    victim_slot = int(np.random.default_rng(0).integers(3))
    put(c, "d", "d")
    assert len(c) == 3 and "d" in c
    assert c._slots[victim_slot] == "d"
    assert sorted(c._items) == sorted(c._slots)
    assert c.stats.evictions == 1 and c.stats.insertions == 4


def test_random_replacement_choice_draws_a_resident_without_counting():
    c = RandomReplacementCache(4, rng=np.random.default_rng(1))
    for k in range(4):
        put(c, k, k * 10)
    draws = {c.choice() for _ in range(50)}
    assert draws == {(k, k * 10) for k in range(4)}
    assert c.stats.requests == 0


# ----------------------------------------------------------------------
# Checkpointing: a restored cache evicts what the original would
# ----------------------------------------------------------------------
def _make(cls, seed=0):
    if cls is RandomReplacementCache:
        return cls(4, rng=np.random.default_rng(seed))
    return cls(4)


def _clone_rng(cache, restored):
    if isinstance(cache, RandomReplacementCache):
        restored._rng.bit_generator.state = cache._rng.bit_generator.state


ALL_CACHES = [LRUCache, LFUCache, MinIOCache, RandomReplacementCache]


@pytest.mark.parametrize("cls", ALL_CACHES)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=120),
       cut=st.integers(0, 120))
@settings(max_examples=50, deadline=None)
def test_property_restored_cache_continues_identically(cls, ops, cut):
    """Snapshot mid-sequence, restore into a fresh cache, replay the rest
    on both: same residents in the same order, same values, same stats."""
    original = _make(cls)

    def step(c, is_put, key):
        if is_put:
            put(c, key, np.full(2, key))
        else:
            get(c, key)

    for is_put, key in ops[:cut]:
        step(original, is_put, key)
    restored = _make(cls, seed=99)
    restored.load_state_dict(original.state_dict())
    _clone_rng(original, restored)
    for is_put, key in ops[cut:]:
        step(original, is_put, key)
        step(restored, is_put, key)
    assert list(restored._items) == list(original._items)
    for k in original._items:
        np.testing.assert_array_equal(restored.store.peek(k), original.store.peek(k))
    assert restored.stats == original.stats
    assert restored._order_state() == original._order_state()


@pytest.mark.parametrize("cls", ALL_CACHES)
def test_cache_state_survives_the_checkpoint_archive(cls, tmp_path):
    c = _make(cls)
    for k in [3, 1, 3, 7, 9, 1, 11, 3]:
        if get(c, k) is None:
            put(c, k, np.arange(3.0) + k)
    path = save_state(tmp_path / "cache.npz", c.state_dict())
    restored = _make(cls)
    restored.load_state_dict(load_state(path))
    assert list(restored._items) == list(c._items)
    assert restored.capacity == c.capacity and restored.stats == c.stats
    assert restored._order_state() == c._order_state()
    for k in c._items:
        np.testing.assert_array_equal(restored.store.peek(k), c.store.peek(k))


def test_empty_cache_round_trips():
    c = LFUCache(3)
    restored = LFUCache(3)
    restored.load_state_dict(c.state_dict())
    assert len(restored) == 0 and restored._min_freq == 0


# ----------------------------------------------------------------------
# Property tests shared across policies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [LRUCache, LFUCache])
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=200),
       cap=st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_property_capacity_never_exceeded(cls, ops, cap):
    c = cls(cap)
    for is_put, key in ops:
        if is_put:
            put(c, key, key)
        else:
            get(c, key)
        assert len(c) <= cap


@pytest.mark.parametrize("cls", [LRUCache, LFUCache, MinIOCache])
@given(keys=st.lists(st.integers(0, 20), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_property_get_after_put_consistent(cls, keys):
    """A key reported present must return its stored value."""
    c = cls(5)
    stored = {}
    for k in keys:
        if k not in c:
            put(c, k, k * 2)
        if k in c:
            v = get(c, k)
            assert v == k * 2
