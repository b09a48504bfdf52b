"""ImportanceCache (min-heap cache) tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.importance_cache import ImportanceCache


def _scores(cache):
    """``(key, score)`` of every resident, in residence order."""
    return [(k, s) for k, (s, _) in cache._items.items()]


def test_admit_until_full():
    c = ImportanceCache(3)
    assert c.admit(1, 0.5, "a")
    assert c.admit(2, 0.1, "b")
    assert c.admit(3, 0.9, "c")
    assert len(c) == 3
    assert c.min_score() == 0.1
    # Peeking at the minimum does not remove it.
    assert c.peek_min() == (2, "b")
    assert c.min_score() == 0.1 and len(c) == 3
    c.check_invariants()


def test_admit_rejects_below_minimum():
    """Fig. 9 case 2: incoming score below heap minimum is rejected."""
    c = ImportanceCache(2)
    c.admit(1, 0.5, "a")
    c.admit(2, 0.3, "b")
    assert not c.admit(3, 0.2, "c")
    assert 3 not in c
    assert len(c) == 2


def test_admit_evicts_minimum():
    """Fig. 9 case 4: higher score evicts the current minimum."""
    c = ImportanceCache(2)
    c.admit(1, 0.5, "a")
    c.admit(2, 0.3, "b")
    assert c.admit(3, 0.6, "c")
    assert 2 not in c
    assert 1 in c and 3 in c
    assert c.stats.evictions == 1


def test_admit_equal_score_rejected():
    c = ImportanceCache(1)
    c.admit(1, 0.3, "a")
    assert not c.admit(2, 0.3, "b")  # strict inequality required


def test_get_hit_miss_stats():
    c = ImportanceCache(2)
    c.admit(1, 0.5, "a")
    assert c.lookup(1) == (1, "a")
    assert c.lookup(2) is None
    assert c.stats.hits == 1
    assert c.stats.misses == 1


def test_admit_existing_refreshes():
    c = ImportanceCache(2)
    c.admit(1, 0.5, "a")
    assert c.admit(1, 0.7, "a2")
    assert c.lookup(1) == (1, "a2")
    assert len(c) == 1
    # A refresh re-scores the one entry, up or down, never duplicates it.
    assert c.admit(1, 0.2, "a3")
    assert len(c) == 1 and _scores(c) == [(1, 0.2)]
    c.check_invariants()


def test_zero_capacity():
    c = ImportanceCache(0)
    assert not c.admit(1, 1.0, "a")
    assert c.min_score() is None
    # An empty cache with room: no minimum, nothing to evict.
    c = ImportanceCache(3)
    assert len(c) == 0 and 1 not in c
    assert c.min_score() is None and c.peek_min() is None
    assert c.resize(2) == []
    c.check_invariants()


def test_negative_capacity():
    with pytest.raises(ValueError):
        ImportanceCache(-1)


def test_update_score_changes_eviction_order():
    c = ImportanceCache(2)
    c.admit(1, 0.5, "a")
    c.admit(2, 0.6, "b")
    c.update_score(2, 0.1)  # now 2 is least important
    c.admit(3, 0.4, "c")
    assert 2 not in c
    assert 1 in c
    # Down: a deep resident moves to the top; up: it sinks below the rest.
    c = ImportanceCache(10)
    for i in range(10):
        c.admit(i, float(i + 10), i)
    c.update_score(9, 0.5)
    assert c.peek_min() == (9, 9)
    c.update_score(9, 100.0)
    assert c.peek_min() == (0, 0)
    assert c.resize(1) == list(range(9))
    c.check_invariants()


def test_update_score_absent_noop():
    c = ImportanceCache(2)
    c.update_score(99, 1.0)  # must not raise
    assert len(c) == 0


def test_shrink_evicts_least_important():
    c = ImportanceCache(4)
    for i, s in enumerate([0.4, 0.1, 0.9, 0.5]):
        c.admit(i, s, i)
    evicted = c.resize(2)
    assert evicted == [1, 0]  # lowest scores out first
    assert c.capacity == 2
    assert 2 in c and 3 in c
    assert c.resize(0) == [3, 2]
    # Equal scores leave in admission order, whatever order they were
    # last rescored in.
    c = ImportanceCache(3)
    for key, score in [("first", 0.5), ("second", 0.6), ("third", 0.7)]:
        c.admit(key, score, key)
    c.update_scores(["third", "second", "first"], [0.5, 0.5, 0.5])
    assert c.resize(0) == ["first", "second", "third"]


def test_grow_after_shrink():
    c = ImportanceCache(2)
    c.admit(1, 0.5, "a")
    c.resize(1)
    c.resize(3)
    assert c.capacity == 3
    with pytest.raises(ValueError):
        c.resize(-1)


def test_scores_snapshot():
    c = ImportanceCache(2)
    c.admit(1, 0.5, "a")
    c.admit(2, 0.3, "b")
    snap = dict(_scores(c))
    assert snap == {1: 0.5, 2: 0.3}
    assert 1 in c and 3 not in c
    assert list(c._items) == [1, 2]  # admission order


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 30), st.floats(0, 10, allow_nan=False)),
        max_size=150,
    ),
    cap=st.integers(1, 8),
)
@settings(max_examples=50, deadline=None)
def test_property_resident_scores_dominate(ops, cap):
    """After any admit sequence, every resident's score >= every rejected
    final admission attempt, and size never exceeds capacity."""
    c = ImportanceCache(cap)
    for key, score in ops:
        c.admit(key, score, key)
        assert len(c) <= cap
        c.check_invariants()
        if len(c) == cap:
            m = c.min_score()
            # Heap minimum is really the minimum.
            assert all(s >= m for _, s in _scores(c))


class _Reference:
    """Brute-force Importance Cache: residents sorted by (score, admission)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.live = {}  # key -> (score, admission), in admission order
        self.admitted = 0

    def order(self):
        return sorted(self.live, key=self.live.get)

    def admit(self, key, score):
        if self.capacity == 0:
            return False
        if key in self.live:
            self.live[key] = (score, self.live[key][1])
            return True
        full = len(self.live) >= self.capacity
        if full and score <= self.live[self.order()[0]][0]:
            return False
        if full:
            del self.live[self.order()[0]]
        self.live[key] = (score, self.admitted)
        self.admitted += 1
        return True

    def update_scores(self, keys, scores):
        for key, score in zip(keys, scores):
            if key in self.live:
                self.live[key] = (score, self.live[key][1])

    def shrink_to(self, capacity):
        evicted = self.order()[: max(len(self.live) - capacity, 0)]
        for key in evicted:
            del self.live[key]
        self.capacity = capacity
        return evicted


# Few distinct scores, so ties (broken by admission order) are common.
SCORES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
KEYS = st.integers(0, 15)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), KEYS, SCORES),
        st.tuples(st.just("update"),
                  st.lists(st.tuples(KEYS, SCORES), max_size=6), st.none()),
        st.tuples(st.just("shrink"), st.integers(0, 8), st.none()),
        st.tuples(st.just("grow"), st.integers(0, 4), st.none()),
        st.tuples(st.just("restore"), st.none(), st.none()),
    ),
    max_size=80,
)


@given(ops=OPS, cap=st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_property_eviction_order_matches_reference(ops, cap):
    """Admissions, rescoring, shrinks and snapshot round trips keep the
    residents, their admission order and the eviction order of a
    brute-force sort by (score, admission order)."""
    c, ref = ImportanceCache(cap), _Reference(cap)
    for op, a, b in ops:
        if op == "admit":
            assert c.admit(a, b, a) == ref.admit(a, b)
        elif op == "update":
            keys, scores = [k for k, _ in a], [s for _, s in a]
            c.update_scores(keys, scores)
            ref.update_scores(keys, scores)
        elif op == "shrink":
            a = min(a, c.capacity)
            assert c.resize(a) == ref.shrink_to(a)
        elif op == "grow":
            c.resize(c.capacity + a)
            ref.capacity += a
        else:
            restored = ImportanceCache(0)
            restored.load_state_dict(c.state_dict())
            c = restored
        c.check_invariants()
        assert list(c._items) == list(ref.live)
        assert _scores(c) == [(k, s) for k, (s, _) in ref.live.items()]
        assert c.min_score() == (ref.live[ref.order()[0]][0] if ref.live else None)
    assert c.resize(0) == ref.order()


def test_heap_entries_stay_bounded_under_rescoring():
    """Every rescoring leaves a stale heap entry behind; at fixed capacity
    the heap still holds at most twice the residents plus a constant."""
    rng = np.random.default_rng(0)
    c = ImportanceCache(50)
    for key in range(50):
        c.admit(key, float(rng.random()), key)
    for _ in range(10_000):
        keys = rng.choice(50, size=4, replace=False)
        c.update_scores(keys, rng.random(4))
    c.check_invariants()
    assert len(c) == 50
    before = sorted(_scores(c), key=lambda kv: kv[1])
    assert c.resize(0) == [k for k, _ in before]
    c.check_invariants()
    # Rescoring downwards leaves every stale entry above the residents,
    # where evicting them all does not reach; the shrink drops them.
    c = ImportanceCache(64)
    for key in range(64):
        c.admit(key, 2000.0 + key, key)
    c.update_scores(np.arange(64), 1000.0 + np.arange(64))
    c.update_scores(np.arange(64), np.arange(64, dtype=float))
    assert c.resize(0) == list(range(64))
    c.check_invariants()


def test_restores_a_snapshot_in_heap_array_order():
    """Snapshots written by the indexed heap this cache replaced list their
    entries in heap-array order, not eviction order; they load and evict
    in (score, admission) order."""
    state = {
        "capacity": 4,
        "keys": np.array([1, 2, 3, 4]),
        "values": np.array([10, 20, 30, 40]),
        # [score, admission tiebreak, key], as a heap array
        "order": {"entries": [[0.1, 1, 2], [0.5, 0, 1], [0.3, 3, 4],
                              [0.9, 2, 3]], "counter": 4},
        "stats": ImportanceCache(0).stats.state_dict(),
    }
    c = ImportanceCache(0)
    c.load_state_dict(state)
    c.check_invariants()
    assert list(c._items) == [1, 2, 3, 4]
    assert c.lookup(4) == (4, 40)
    # A new admission gets tiebreak 4: it outlives the old ties at 0.3.
    c.resize(5)
    assert c.admit(5, 0.3, 50)
    assert c.resize(0) == [2, 4, 5, 1, 3]
