"""Trace recording, replay, and Belady-OPT tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache
from repro.cache.trace import AccessTrace, belady_hit_ratio, record_trace, replay


# ----------------------------------------------------------------------
# AccessTrace
# ----------------------------------------------------------------------
def test_trace_basic():
    t = AccessTrace(np.array([0, 1, 2, 0]), epoch_bounds=[2, 4])
    assert len(t) == 4
    assert t.n_epochs == 2
    assert t.unique_count == 3


def test_trace_2d_rejected():
    with pytest.raises(ValueError):
        AccessTrace(np.zeros((2, 2)))


def test_frequency_histogram():
    t = AccessTrace(np.array([0, 0, 2]))
    np.testing.assert_array_equal(t.frequency_histogram(), [2, 0, 1])
    np.testing.assert_array_equal(t.frequency_histogram(5), [2, 0, 1, 0, 0])


def test_record_trace():
    t = record_trace(lambda e: [e, e + 1], epochs=3)
    np.testing.assert_array_equal(t.requests, [0, 1, 1, 2, 2, 3])
    assert t.epoch_bounds == [2, 4, 6]
    with pytest.raises(ValueError):
        record_trace(lambda e: [0], epochs=0)


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def test_replay_matches_manual():
    t = AccessTrace(np.array([0, 1, 0, 2, 0]))
    stats = replay(t, LRUCache(2))
    # 0 miss, 1 miss, 0 hit, 2 miss (evict 1), 0 hit.
    assert stats.hits == 2
    assert stats.misses == 3


def test_replay_minio_steady_state():
    rng = np.random.default_rng(0)
    t = record_trace(lambda e: rng.permutation(100), epochs=4)
    stats = replay(t, MinIOCache(25))
    # First epoch fills (no hits), then 25% per epoch.
    assert stats.hit_ratio == pytest.approx(0.25 * 3 / 4, abs=0.01)


# ----------------------------------------------------------------------
# Belady OPT
# ----------------------------------------------------------------------
def test_belady_simple_sequence():
    # Sequence 0 1 2 0 1 2, capacity 2: OPT hits exactly 2 of 6
    # (keep whichever of the residents recurs soonest).
    t = AccessTrace(np.array([0, 1, 2, 0, 1, 2]))
    assert belady_hit_ratio(t, 2) == pytest.approx(2 / 6)


def test_belady_all_hits_when_capacity_covers():
    t = AccessTrace(np.array([0, 1, 0, 1, 0, 1]))
    assert belady_hit_ratio(t, 2) == pytest.approx(4 / 6)  # only cold misses


def test_belady_zero_capacity():
    t = AccessTrace(np.array([0, 0, 0]))
    assert belady_hit_ratio(t, 0) == 0.0
    assert belady_hit_ratio(AccessTrace(np.array([], dtype=np.int64)), 4) == 0.0


def test_belady_negative_capacity():
    with pytest.raises(ValueError):
        belady_hit_ratio(AccessTrace(np.array([0])), -1)


def test_belady_beats_lru():
    """OPT dominates LRU on a looping trace (LRU's worst case)."""
    t = AccessTrace(np.tile(np.arange(10), 20))
    lru = replay(t, LRUCache(5)).hit_ratio
    opt = belady_hit_ratio(t, 5)
    assert opt > lru
    assert lru == 0.0  # loop longer than capacity: LRU thrashes completely


@given(
    st.lists(st.integers(0, 15), min_size=1, max_size=300),
    st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_property_belady_upper_bounds_lru(reqs, cap):
    """OPT is an upper bound on LRU's exact-hit ratio for any trace."""
    t = AccessTrace(np.asarray(reqs))
    lru = replay(t, LRUCache(cap)).hit_ratio
    opt = belady_hit_ratio(t, cap)
    assert opt >= lru - 1e-12


@given(st.lists(st.integers(0, 10), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_property_belady_monotone_in_capacity(reqs):
    t = AccessTrace(np.asarray(reqs))
    ratios = [belady_hit_ratio(t, c) for c in (1, 2, 4, 11)]
    assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    # At capacity >= unique items, only cold misses remain.
    expected = (len(t) - t.unique_count) / len(t)
    assert ratios[-1] == pytest.approx(expected)


def test_belady_importance_trace_more_cacheable():
    """The paper's thesis, in oracle form: importance-skewed traces have
    far more cacheable locality than permutation traces at equal size."""
    rng = np.random.default_rng(1)
    n = 500
    perm_trace = record_trace(lambda e: rng.permutation(n), epochs=4)
    w = np.ones(n)
    w[:50] = 30.0
    p = w / w.sum()
    skew_trace = record_trace(
        lambda e: rng.choice(n, size=n, replace=True, p=p), epochs=4
    )
    cap = n // 10
    assert belady_hit_ratio(skew_trace, cap) > 2 * belady_hit_ratio(perm_trace, cap)
