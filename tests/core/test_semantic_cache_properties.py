"""Property-based tests for the SemanticCache protocol invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import FetchSource
from repro.core.semantic_cache import SemanticCache


def _scores(cache):
    """``(key, score)`` of every resident, in residence order."""
    return [(k, s) for k, (s, _) in cache._items.items()]

KEYS = st.integers(0, 40)


@st.composite
def op_sequences(draw):
    """A mixed sequence of fetches, homophily updates, and ratio changes."""
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("fetch"), KEYS, st.floats(0, 2, allow_nan=False)),
            st.tuples(st.just("hom"), KEYS,
                      st.lists(KEYS, min_size=1, max_size=5)),
            st.tuples(st.just("ratio"),
                      st.floats(0, 1, allow_nan=False), st.none()),
        ),
        max_size=120,
    ))
    return ops


@given(ops=op_sequences(), capacity=st.integers(0, 20),
       start_ratio=st.floats(0, 1, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_property_semantic_cache_invariants(ops, capacity, start_ratio):
    cache = SemanticCache(capacity, imp_ratio=start_ratio)
    fetches = 0
    remote_calls = [0]

    def remote(i):
        remote_calls[0] += 1
        return ("payload", i)

    for op in ops:
        if op[0] == "fetch":
            _, key, score = op
            out = cache.fetch(key, score, remote)
            fetches += 1
            # A fetch always returns the requested payload or a substitute
            # whose payload matches its served id.
            assert out.payload == ("payload", out.served_id) or \
                out.payload[1] == out.served_id
            if out.source == FetchSource.REMOTE:
                assert out.served_id == out.requested_id
        elif op[0] == "hom":
            _, key, neigh = op
            cache.update_homophily(key, ("payload", key), neigh)
        else:
            _, ratio, _ = op
            cache.set_imp_ratio(ratio)

        # Budget and heap invariants hold after every operation.
        cache.importance.check_invariants()
        assert len(cache.importance) <= cache.importance.capacity
        assert len(cache.homophily) <= cache.homophily.capacity
        assert (cache.importance.capacity + cache.homophily.capacity
                == cache.total_capacity)

    # Accounting: every fetch is exactly one hit, substitute hit, or miss,
    # and misses equal remote calls.
    s = cache.stats
    assert s.requests == fetches
    assert s.misses == remote_calls[0]
    # The importance layer's heap: occupancy is admissions net of
    # evictions, and its minimum is the true minimum resident score.
    imp = cache.importance
    assert imp.stats.insertions - imp.stats.evictions == len(imp)
    snapshot = _scores(imp)
    assert imp.min_score() == (
        min(score for _, score in snapshot) if snapshot else None
    )


@given(
    keys=st.lists(KEYS, min_size=1, max_size=150),
    capacity=st.integers(1, 15),
)
@settings(max_examples=60, deadline=None)
def test_property_importance_only_matches_reference(keys, capacity):
    """With a 100% importance ratio and constant scores, the cache behaves
    like insert-until-full with no replacement (scores never beat the min)."""
    cache = SemanticCache(capacity, imp_ratio=1.0)
    resident = set()
    for k in keys:
        out = cache.fetch(k, 1.0, lambda i: i)
        if k in resident:
            assert out.source == FetchSource.IMPORTANCE
        else:
            assert out.source == FetchSource.REMOTE
            if len(resident) < capacity:
                resident.add(k)
    assert set(cache.importance._items) == resident
