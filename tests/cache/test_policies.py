"""Classic cache policy tests: LRU, LFU, MinIO + shared stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheStats
from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache


# ----------------------------------------------------------------------
# CacheStats
# ----------------------------------------------------------------------
def test_stats_hit_ratio():
    s = CacheStats(hits=3, misses=1, substitute_hits=1)
    assert s.requests == 5
    assert s.hit_ratio == pytest.approx(0.8)
    assert s.exact_hit_ratio == pytest.approx(0.6)


def test_stats_idle_zero():
    assert CacheStats().hit_ratio == 0.0


def test_stats_merge_and_reset():
    a = CacheStats(hits=1, misses=2)
    b = CacheStats(hits=3, misses=4, evictions=1)
    a.merge(b)
    assert a.hits == 4 and a.misses == 6 and a.evictions == 1
    a.reset()
    assert a.requests == 0


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------
def test_lru_evicts_least_recent():
    c = LRUCache(2)
    c.put("a", 1)
    c.put("b", 2)
    c.get("a")  # refresh a
    c.put("c", 3)  # evicts b
    assert "a" in c and "c" in c and "b" not in c


def test_lru_get_miss_counts():
    c = LRUCache(2)
    assert c.get("x") is None
    assert c.stats.misses == 1
    c.put("x", 1)
    assert c.get("x") == 1
    assert c.stats.hits == 1


def test_lru_refresh_existing_key():
    c = LRUCache(2)
    c.put("a", 1)
    c.put("a", 2)
    assert c.get("a") == 2
    assert len(c) == 1


def test_lru_zero_capacity_drops():
    c = LRUCache(0)
    c.put("a", 1)
    assert len(c) == 0


def test_lru_negative_capacity():
    with pytest.raises(ValueError):
        LRUCache(-1)


def test_lru_eviction_count():
    c = LRUCache(1)
    c.put("a", 1)
    c.put("b", 2)
    assert c.stats.evictions == 1


# ----------------------------------------------------------------------
# LFU
# ----------------------------------------------------------------------
def test_lfu_evicts_least_frequent():
    c = LFUCache(2)
    c.put("a", 1)
    c.put("b", 2)
    c.get("a")
    c.get("a")
    c.put("c", 3)  # evicts b (freq 1 < a's 3)
    assert "a" in c and "c" in c and "b" not in c


def test_lfu_tie_broken_lru():
    c = LFUCache(2)
    c.put("a", 1)
    c.put("b", 2)
    c.put("c", 3)  # a and b tied at freq 1; a was inserted first
    assert "a" not in c and "b" in c


def test_lfu_frequency_accessor():
    c = LFUCache(3)
    c.put("a", 1)
    c.get("a")
    c.get("a")
    assert c.frequency("a") == 3  # insert + two hits
    with pytest.raises(KeyError):
        c.frequency("zzz")


def test_lfu_update_refreshes_value_and_freq():
    c = LFUCache(2)
    c.put("a", 1)
    c.put("a", 5)
    assert c.get("a") == 5
    assert c.frequency("a") >= 2


# ----------------------------------------------------------------------
# MinIO
# ----------------------------------------------------------------------
def test_minio_never_evicts():
    c = MinIOCache(2)
    c.put("a", 1)
    c.put("b", 2)
    c.put("c", 3)  # dropped, not inserted
    assert "a" in c and "b" in c and "c" not in c
    assert c.stats.evictions == 0


def test_minio_hit_after_fill():
    c = MinIOCache(1)
    c.put("a", 1)
    assert c.get("a") == 1
    assert c.get("b") is None


def test_minio_no_replacement_of_existing():
    c = MinIOCache(2)
    c.put("a", 1)
    c.put("a", 99)  # MinIO never replaces
    assert c.get("a") == 1


def test_minio_steady_state_hit_ratio():
    """Under random sampling MinIO's hit ratio equals the cache fraction."""
    rng = np.random.default_rng(0)
    n, cap = 1000, 300
    c = MinIOCache(cap)
    # Fill epoch.
    for i in rng.permutation(n):
        if c.get(int(i)) is None:
            c.put(int(i), i)
    c.stats.reset()
    for _ in range(3):
        for i in rng.permutation(n):
            if c.get(int(i)) is None:
                c.put(int(i), i)
    assert c.stats.hit_ratio == pytest.approx(cap / n, abs=0.001)


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
            c.put(key, key)
        else:
            c.get(key)
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
            c.put(k, k * 2)
        if k in c:
            v = c.get(k)
            assert v == k * 2
