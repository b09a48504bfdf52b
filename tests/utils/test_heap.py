"""Min-heap behaviour of the Importance Cache (paper §4.2: "a min-heap
manages the cache"), driven through :class:`ImportanceCache`'s public API.

The cache keeps its priorities on a lazily invalidated ``heapq`` heap; these
tests pin the heap contract it inherits: pop order, ties, priority updates
in both directions, membership and key listing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.importance_cache import ImportanceCache


def _scores(cache):
    """``(key, score)`` of every resident, in residence order."""
    return [(k, s) for k, (s, _) in cache._items.items()]


def _filled(scores, capacity=None):
    c = ImportanceCache(len(scores) if capacity is None else capacity)
    for key, score in scores:
        assert c.admit(key, score, f"v{key}")
    return c


def test_empty_heap():
    c = ImportanceCache(4)
    assert len(c) == 0
    assert 7 not in c
    assert c.min_score() is None
    assert c.peek_min() is None
    assert c.resize(0) == []
    c.check_invariants()


def test_push_pop_ordering():
    c = _filled([(10, 3.0), (11, 1.0), (12, 2.0)])
    assert c.resize(2) == [11]
    assert c.min_score() == 2.0
    assert c.resize(0) == [12, 10]


def test_duplicate_key_rejected():
    """Re-admitting a resident never adds a second entry for it."""
    c = ImportanceCache(3)
    c.admit(1, 1.0, "a")
    assert c.admit(1, 2.0, "a2")
    assert len(c) == 1
    assert _scores(c) == [(1, 2.0)]
    c.check_invariants()
    assert c.resize(0) == [1]


def test_peek_does_not_remove():
    c = _filled([(1, 5.0), (2, 3.0)])
    assert c.peek_min() == (2, "v2")
    assert len(c) == 2
    assert c.min_score() == 3.0
    assert c.peek_min() == (2, "v2")


def test_contains_and_priority():
    c = _filled([(5, 7.5)], capacity=2)
    assert 5 in c
    assert dict(_scores(c))[5] == 7.5
    assert 6 not in c
    assert 6 not in dict(_scores(c))


def test_update_decrease_moves_to_top():
    c = _filled([(i, float(i + 10)) for i in range(10)])
    c.update_score(9, 0.5)
    assert c.peek_min() == (9, "v9")
    assert c.min_score() == 0.5
    c.check_invariants()


def test_update_increase_moves_down():
    c = _filled([(i, float(i)) for i in range(10)])
    c.update_score(0, 100.0)
    assert c.peek_min() == (1, "v1")
    assert c.min_score() == 1.0
    # The updated key is still resident with its new score.
    assert dict(_scores(c))[0] == 100.0
    c.check_invariants()
    assert c.resize(0) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]


def test_push_or_update():
    """Admitting a resident updates it; rescoring a non-resident is a no-op."""
    c = ImportanceCache(3)
    c.admit(1, 2.0, "a")
    c.admit(1, 1.0, "a")
    assert len(c) == 1
    assert c.min_score() == 1.0
    c.update_scores([2], [0.5])
    assert 2 not in c and len(c) == 1
    c.check_invariants()


def test_ties_broken_by_insertion_order():
    c = _filled([(1, 1.0), (2, 1.0)])
    assert c.resize(1) == [1]
    assert c.resize(0) == [2]
    # A rescored resident keeps its admission order for ties.
    c = _filled([(1, 1.0), (2, 1.0)])
    c.update_score(1, 5.0)
    c.update_score(1, 1.0)
    assert c.resize(0) == [1, 2]


def test_clear_and_keys():
    c = _filled([(1, 1.0), (2, 2.0)])
    assert list(c._items) == [1, 2]
    c.resize(0)
    assert len(c) == 0
    assert list(c._items) == []
    c.check_invariants()


def test_iteration_yields_all_keys():
    c = _filled([(i, float(-i)) for i in range(5)])
    assert sorted(c._items) == [0, 1, 2, 3, 4]
    assert sorted(k for k, _ in _scores(c)) == [0, 1, 2, 3, 4]


@given(
    st.lists(
        st.tuples(st.sampled_from(["admit", "pop", "update"]),
                  st.integers(0, 20), st.floats(-100, 100)),
        max_size=150,
    )
)
@settings(max_examples=100, deadline=None)
def test_property_invariants_under_mixed_ops(ops):
    """Heap order and live priorities stay consistent under arbitrary ops."""
    c = ImportanceCache(25)  # above the key range: admissions never evict
    model = {}
    for op, key, score in ops:
        if op == "admit":
            if key not in model:
                assert c.admit(key, score, key)
                model[key] = score
        elif op == "pop":
            if model:
                lowest = min(model.values())
                assert c.min_score() == lowest
                (k,) = c.resize(len(model) - 1)
                assert model.pop(k) == lowest
                c.resize(25)
        else:  # update
            c.update_scores([key], [score])
            if key in model:
                model[key] = score
        c.check_invariants()
        assert len(c) == len(model)
    assert dict(_scores(c)) == model
