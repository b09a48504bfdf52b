"""iCache policy tests (both variants)."""

import numpy as np
import pytest

from repro.baselines.icache import ICacheFullPolicy, ICacheImpPolicy
from repro.cache.base import FetchSource
from repro.data.synthetic import make_clustered_dataset
from repro.storage.backends import RemoteStore
from repro.train.policy_base import PolicyContext


def _ctx(n=100, seed=0):
    ds = make_clustered_dataset(n, n_classes=4, dim=8, rng=seed)
    store = RemoteStore(ds.X)
    return PolicyContext(dataset=ds, store=store, total_epochs=5, embedding_dim=8)


# ----------------------------------------------------------------------
# iCache-imp
# ----------------------------------------------------------------------
def test_imp_invalid_params():
    with pytest.raises(ValueError):
        ICacheImpPolicy(cache_fraction=1.5)
    with pytest.raises(ValueError):
        ICacheImpPolicy(skip_quantile=1.0)


def test_imp_backprop_mask_skips_low_loss():
    p = ICacheImpPolicy(skip_quantile=0.5, rng=0)
    p.setup(_ctx())
    losses = np.linspace(0.1, 1.0, 10)
    mask = p.backprop_mask(np.arange(10), losses)
    # Lowest-loss half skipped.
    assert mask[:5].sum() == 0
    assert mask[5:].sum() == 5


def test_imp_mask_none_when_disabled():
    p = ICacheImpPolicy(skip_quantile=0.0, rng=0)
    p.setup(_ctx())
    assert p.backprop_mask(np.arange(4), np.ones(4)) is None


def test_imp_raw_losses_as_scores():
    p = ICacheImpPolicy(rng=0)
    p.setup(_ctx())
    ids = np.arange(8)
    losses = np.linspace(1.0, 8.0, 8)
    p.after_batch(ids, ids, losses, np.zeros((8, 8)), epoch=0)
    assert p.score_table.get(7) == pytest.approx(8.0)
    assert p.score_table.get(0) == pytest.approx(1.0)


def test_imp_fetch_hit_miss():
    p = ICacheImpPolicy(cache_fraction=0.5, rng=0)
    p.setup(_ctx())
    assert p.fetch_many([1])[0].source == FetchSource.REMOTE
    assert p.fetch_many([1])[0].source == FetchSource.IMPORTANCE


# ----------------------------------------------------------------------
# full iCache
# ----------------------------------------------------------------------
def test_full_invalid_params():
    with pytest.raises(ValueError):
        ICacheFullPolicy(substitute_prob=-0.1)


def test_full_sections_split_budget():
    p = ICacheFullPolicy(cache_fraction=0.4, rng=0)  # 70 % H-section
    ctx = _ctx(n=100)
    p.setup(ctx)
    assert p.cache.importance.capacity == 28
    assert p.cache.layers[-1].capacity == 12


def test_full_l_section_exact_hit():
    p = ICacheFullPolicy(cache_fraction=0.4, substitute_prob=0.0, rng=0)
    p.setup(_ctx())
    # Prime scores so sample 1 is low-importance.
    p.score_table.update(np.arange(100), np.full(100, 0.001))
    # Fill the H cache (capacity 28) with higher-importance items first.
    p.score_table.update(np.arange(50, 80), np.full(30, 10.0))
    for i in range(50, 78):
        p.fetch_many([i])
    o = p.fetch_many([1])[0]  # low score -> lands in L section
    assert o.source == FetchSource.REMOTE
    o2 = p.fetch_many([1])[0]
    assert o2.source == FetchSource.L_SECTION  # L exact hit
    assert o2.served_id == o2.requested_id


def test_full_random_substitution():
    """Low-importance misses get served arbitrary cached L-samples."""
    p = ICacheFullPolicy(cache_fraction=0.4, substitute_prob=1.0, rng=0)
    p.setup(_ctx())
    p.score_table.update(np.arange(100), np.full(100, 0.001))
    p.score_table.update(np.arange(50, 80), np.full(30, 10.0))
    for i in range(50, 78):  # fill H
        p.fetch_many([i])
    p.fetch_many([1])  # seeds the L section
    o = p.fetch_many([2])[0]  # L miss -> substituted by the only L resident (1)
    assert o.served_id != o.requested_id
    assert o.served_id == 1
    assert p.stats().substitute_hits >= 1


def test_full_substitution_never_for_h_samples():
    p = ICacheFullPolicy(cache_fraction=0.2, substitute_prob=1.0, rng=0)
    p.setup(_ctx())
    p.fetch_many([1])  # first fetch: H cache not full, 1 admitted to H
    o = p.fetch_many([2])[0]
    # Score of 2 (default 1.0) > H threshold once H below capacity... the
    # key invariant: an H-grade sample is never substituted.
    h_threshold = p.cache.importance.min_score()
    assert o.requested_id == o.served_id or p.score_table.get(2) <= h_threshold


def test_full_stats_request_count_consistent():
    p = ICacheFullPolicy(cache_fraction=0.3, rng=0)
    p.setup(_ctx())
    for i in range(50):
        p.fetch_many([i % 20])
    assert p.stats().requests == 50


def test_full_random_replacement_evicts():
    p = ICacheFullPolicy(cache_fraction=0.1, substitute_prob=0.0, rng=0)
    p.setup(_ctx(n=100))  # L capacity = 3
    p.score_table.update(np.arange(100), np.full(100, 0.001))
    p.score_table.update(np.arange(50, 60), np.full(10, 5.0))
    for i in range(50, 57):  # fill H (capacity 7)
        p.fetch_many([i])
    for i in range(20):  # churn L
        p.fetch_many([i])
    l_section = p.cache.layers[-1]
    assert len(l_section) <= 3
    assert l_section.stats.evictions > 0
