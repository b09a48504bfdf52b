"""SemanticCache composite tests — the four Fig. 9 cases."""

import numpy as np
import pytest

from repro.cache.base import FetchSource
from repro.core.semantic_cache import SemanticCache


def _scores(cache):
    """``(key, score)`` of every resident, in residence order."""
    return [(k, s) for k, (s, _) in cache._items.items()]


def _remote(payloads, calls):
    def get(i):
        calls.append(i)
        return payloads[i]

    return get


@pytest.fixture
def cache():
    return SemanticCache(total_capacity=10, imp_ratio=0.8)


def test_capacity_split(cache):
    assert cache.importance.capacity == 8
    assert cache.homophily.capacity == 2
    assert cache.imp_ratio == 0.8


def test_invalid_params():
    with pytest.raises(ValueError):
        SemanticCache(-1)
    with pytest.raises(ValueError):
        SemanticCache(10, imp_ratio=1.5)


def test_case1_importance_hit(cache):
    calls = []
    payloads = {i: f"p{i}" for i in range(20)}
    get = _remote(payloads, calls)
    cache.fetch(1, 0.4, get)  # miss -> fetched, admitted
    out = cache.fetch(1, 0.4, get)
    assert out.source == FetchSource.IMPORTANCE
    assert out.payload == "p1"
    assert out.served_id == out.requested_id
    assert calls == [1]  # remote touched only once


def test_case2_miss_no_admission():
    c = SemanticCache(2, imp_ratio=1.0)
    calls = []
    get = _remote({i: i for i in range(10)}, calls)
    c.fetch(1, 0.5, get)
    c.fetch(2, 0.4, get)
    out = c.fetch(3, 0.3, get)  # below min (0.4): fetched, not admitted
    assert out.source == FetchSource.REMOTE
    assert 3 not in c.importance
    assert calls == [1, 2, 3]


def test_case3_homophily_substitution(cache):
    calls = []
    get = _remote({i: f"p{i}" for i in range(20)}, calls)
    cache.update_homophily(10, "p10", [5, 6])
    out = cache.fetch(5, 0.1, get)
    assert out.source == FetchSource.HOMOPHILY
    assert out.served_id == 10
    assert out.payload == "p10"
    assert out.served_id != out.requested_id
    assert calls == []  # no remote fetch
    assert cache.stats.substitute_hits == 1


def test_case4_admission_evicts_minimum():
    c = SemanticCache(2, imp_ratio=1.0)
    get = _remote({i: i for i in range(10)}, [])
    c.fetch(1, 0.5, get)
    c.fetch(2, 0.3, get)
    c.fetch(3, 0.6, get)  # evicts 2
    assert 2 not in c.importance
    assert 3 in c.importance


def test_lookup_order_importance_first(cache):
    get = _remote({i: f"p{i}" for i in range(20)}, [])
    cache.fetch(5, 0.9, get)  # 5 resident in importance cache
    cache.update_homophily(10, "p10", [5])  # 5 also covered by homophily
    out = cache.fetch(5, 0.9, get)
    assert out.source == FetchSource.IMPORTANCE  # checked first
    assert out.served_id == 5


def test_homophily_node_exact_hit_counts_as_hit(cache):
    get = _remote({i: f"p{i}" for i in range(20)}, [])
    cache.update_homophily(10, "p10", [5])
    out = cache.fetch(10, 0.1, get)
    assert out.source == FetchSource.HOMOPHILY
    assert out.served_id == out.requested_id
    assert cache.stats.hits == 1


def test_set_imp_ratio_rebalances(cache):
    get = _remote({i: i for i in range(30)}, [])
    for i in range(8):
        cache.fetch(i, 0.5 + i / 100, get)
    assert len(cache.importance) == 8
    cache.set_imp_ratio(0.5)
    assert cache.importance.capacity == 5
    assert cache.homophily.capacity == 5
    assert len(cache.importance) == 5  # least-important evicted


def test_set_imp_ratio_grow_importance(cache):
    cache.set_imp_ratio(0.5)
    cache.set_imp_ratio(0.9)
    assert cache.importance.capacity == 9
    assert cache.homophily.capacity == 1
    with pytest.raises(ValueError):
        cache.set_imp_ratio(2.0)


def test_total_capacity_conserved_under_ratio_sweep(cache):
    for r in [0.9, 0.5, 0.2, 0.7, 1.0, 0.0]:
        cache.set_imp_ratio(r)
        assert cache.importance.capacity + cache.homophily.capacity == 10


def test_update_score_propagates(cache):
    get = _remote({i: i for i in range(30)}, [])
    cache.fetch(1, 0.5, get)
    cache.update_score(1, 0.05)
    assert _scores(cache.importance) == [(1, 0.05)]
    cache.update_scores(np.array([7, 1]), np.array([0.9, 0.2]))  # 7 absent
    assert _scores(cache.importance) == [(1, 0.2)]
    cache.importance.check_invariants()


def test_hit_ratio_aggregate(cache):
    get = _remote({i: i for i in range(30)}, [])
    cache.fetch(1, 0.5, get)   # miss
    cache.fetch(1, 0.5, get)   # hit
    cache.update_homophily(10, "x", [7])
    cache.fetch(7, 0.1, get)   # substitute hit
    assert cache.stats.requests == 3
    assert cache.stats.hit_ratio == pytest.approx(2 / 3)


def test_len_counts_both_layers(cache):
    get = _remote({i: i for i in range(30)}, [])
    cache.fetch(1, 0.5, get)
    cache.update_homophily(10, "x", [7])
    assert len(cache) == 2


# ----------------------------------------------------------------------
# Capacity split determinism (regression for banker's rounding)
# ----------------------------------------------------------------------
def test_split_capacity_half_always_rounds_up():
    """Regression: ``round()`` banker's rounding made .5 splits flip
    between adjacent totals (round(2.5)=2 but round(3.5)=4)."""
    from repro.core.semantic_cache import split_capacity

    assert split_capacity(5, 0.5) == 3
    assert split_capacity(7, 0.5) == 4
    # Every exact .5 product rounds the same direction.
    for total in range(1, 50):
        assert split_capacity(total, 0.5) == (total + 1) // 2


def test_split_capacity_monotone_in_ratio():
    """Raising imp_ratio never shrinks the importance share."""
    from repro.core.semantic_cache import split_capacity

    for total in (1, 7, 10, 33, 100):
        prev = -1
        for r in np.linspace(0.0, 1.0, 201):
            cap = split_capacity(total, float(r))
            assert 0 <= cap <= total
            assert cap >= prev
            prev = cap
        assert split_capacity(total, 0.0) == 0
        assert split_capacity(total, 1.0) == total


def test_set_imp_ratio_split_matches_constructor():
    """Rebalancing to ratio r yields the same split as building at r."""
    for r in (0.0, 0.25, 0.5, 0.65, 0.9, 1.0):
        built = SemanticCache(total_capacity=10, imp_ratio=r)
        moved = SemanticCache(total_capacity=10, imp_ratio=0.8)
        moved.set_imp_ratio(r)
        assert moved.importance.capacity == built.importance.capacity
        assert moved.homophily.capacity == built.homophily.capacity
        assert (
            moved.importance.capacity + moved.homophily.capacity == 10
        )
