"""HomophilyCache tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.homophily_cache import HomophilyCache


def test_update_and_cover():
    c = HomophilyCache(2)
    assert c.update(10, "payload10", [1, 2, 3])
    assert all(c.serve_key(i) is not None for i in (1, 2, 10))
    assert c.serve_key(99) is None


def test_lookup_substitute():
    """Fig. 9 case 3: a neighbor request returns the high-degree node."""
    c = HomophilyCache(2)
    c.update(10, "p10", [1, 2])
    key, payload = c.lookup(1)
    assert key == 10
    assert payload == "p10"
    assert c.stats.substitute_hits == 1


def test_lookup_node_itself_exact_hit():
    c = HomophilyCache(2)
    c.update(10, "p10", [1])
    key, payload = c.lookup(10)
    assert key == 10
    assert c.stats.hits == 1
    assert c.stats.substitute_hits == 0


def test_lookup_miss():
    c = HomophilyCache(2)
    c.update(10, "p10", [1])
    assert c.lookup(5) is None
    assert c.stats.misses == 1


def test_fifo_eviction():
    c = HomophilyCache(2)
    c.update(1, "a", [10])
    c.update(2, "b", [20])
    c.update(3, "c", [30])  # evicts 1
    assert 1 not in c
    assert c.serve_key(10) is None
    assert c.serve_key(20) is not None and c.serve_key(30) is not None
    assert c.stats.evictions == 1


def test_duplicate_node_skipped():
    """Paper: only nodes 'not previously in the Homophily Cache' enter."""
    c = HomophilyCache(2)
    assert c.update(1, "a", [10])
    assert not c.update(1, "a2", [99])
    key, payload = c.lookup(10)
    assert payload == "a"
    assert c.serve_key(99) is None


def test_most_recent_cover_wins():
    c = HomophilyCache(3)
    c.update(1, "a", [10])
    c.update(2, "b", [10])  # 10 covered by both
    key, payload = c.lookup(10)
    assert key == 2 and payload == "b"


def test_eviction_cleans_neighbor_map():
    c = HomophilyCache(1)
    c.update(1, "a", [10, 11])
    c.update(2, "b", [10])
    # 1 evicted: 11 uncovered, 10 still covered by 2.
    assert c.serve_key(11) is None
    key, _ = c.lookup(10)
    assert key == 2


def test_shrink_and_grow():
    c = HomophilyCache(3)
    for i in range(3):
        c.update(i, f"p{i}", [100 + i])
    evicted = c.resize(1)
    assert evicted == [0, 1]  # oldest first
    assert c.capacity == 1
    assert 2 in c
    c.resize(5)
    assert c.capacity == 5
    assert c.resize(2) == [] and 2 in c  # below capacity, above occupancy
    with pytest.raises(ValueError):
        c.resize(-1)


def test_zero_capacity_rejects():
    c = HomophilyCache(0)
    assert not c.update(1, "a", [2])
    assert c.lookup(2) is None


def test_keys_in_fifo_order():
    c = HomophilyCache(3)
    c.update(3, "x", [1])
    c.update(1, "y", [2])
    assert list(c._items) == [3, 1]


def newest_cover_by_walking_the_fifo(cache, index):
    """The rule ``serve_key`` replaces, kept as its reference: the node
    itself, else the first cover met walking the FIFO newest-first."""
    if index in cache._items:
        return index
    covers = cache._neighbor_of.get(index, ())
    return next((k for k in reversed(cache._items) if k in covers), None)


_key = st.integers(0, 11)
_op = st.one_of(
    st.tuples(st.just("update"), _key, st.lists(_key, max_size=4)),
    st.tuples(st.just("shrink"), st.integers(0, 4)),
    st.tuples(st.just("grow"), st.integers(4, 6)),
    st.tuples(st.just("reload")),
)


@given(ops=st.lists(_op, max_size=40))
@settings(max_examples=200, deadline=None)
def test_cover_key_is_the_newest_cover_of_the_fifo_walk(ops):
    """Insertion counters pick what the reversed FIFO walk picked —
    through evictions, re-inserts of an evicted key, resizes, and a
    ``state_dict`` round trip (which carries no counters: they are
    rebuilt from FIFO order)."""
    c = HomophilyCache(4)
    for op in ops:
        if op[0] == "update":
            c.update(op[1], np.full(2, float(op[1])), op[2])
        elif op[0] == "shrink":
            c.resize(op[1])
        elif op[0] == "grow":
            c.resize(max(op[1], c.capacity))
        else:
            state = c.state_dict()
            assert set(state) == \
                {"capacity", "keys", "values", "order", "stats"}
            c = HomophilyCache(4)
            c.load_state_dict(state)
        for index in range(12):
            want = newest_cover_by_walking_the_fifo(c, index)
            assert c.serve_key(index) == want
            served = c.lookup(index)
            assert (served[0] if served else None) == want
