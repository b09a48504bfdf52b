"""Classic-cache baseline policy tests."""

import numpy as np
import pytest

from repro.baselines.baseline import (
    ClassicCachePolicy,
    CoorDLPolicy,
    LFUPolicy,
    LRUBaselinePolicy,
)
from repro.cache.base import FetchSource
from repro.cache.minio import MinIOCache
from repro.data.synthetic import make_clustered_dataset
from repro.storage.backends import RemoteStore
from repro.train.policy_base import PolicyContext


def _ctx(n=100, seed=0):
    ds = make_clustered_dataset(n, n_classes=4, dim=8, rng=seed)
    store = RemoteStore(ds.X, item_nbytes=ds.item_nbytes)
    return PolicyContext(dataset=ds, store=store, total_epochs=5, embedding_dim=8)


def test_lru_baseline_name_and_cache():
    p = LRUBaselinePolicy(cache_fraction=0.3, rng=0)
    p.setup(_ctx())
    assert p.name == "baseline-lru"
    assert p.cache.total_capacity == 30


def test_classic_policy_custom_cache():
    p = ClassicCachePolicy(MinIOCache, cache_fraction=0.1, rng=0)
    p.setup(_ctx())
    assert p.name == "minio-baseline"


def test_invalid_fraction():
    with pytest.raises(ValueError):
        LRUBaselinePolicy(cache_fraction=2.0)


def test_fetch_demand_fills():
    p = LRUBaselinePolicy(cache_fraction=0.5, rng=0)
    ctx = _ctx()
    p.setup(ctx)
    o1 = p.fetch_many([7])[0]
    assert o1.source == FetchSource.REMOTE
    o2 = p.fetch_many([7])[0]
    assert o2.source == FetchSource.IMPORTANCE
    np.testing.assert_array_equal(o2.payload, ctx.dataset.X[7])


def test_epoch_order_is_permutation():
    p = LRUBaselinePolicy(rng=0)
    p.setup(_ctx())
    order = p.epoch_order(0)
    assert sorted(order.tolist()) == list(range(100))


def test_lru_low_hit_rate_under_random_sampling():
    """The paper's core observation: LRU fails under random sampling.

    Expected hit ratio ~ (C/n)^2 / 2 for cache fraction C/n."""
    ctx = _ctx(n=500)
    p = LRUBaselinePolicy(cache_fraction=0.2, rng=0)
    p.setup(ctx)
    for epoch in range(5):
        for i in p.epoch_order(epoch):
            p.fetch_many([int(i)])
    assert p.stats().hit_ratio < 0.1


def test_lfu_policy():
    p = LFUPolicy(cache_fraction=0.2, rng=0)
    p.setup(_ctx())
    assert p.name == "lfu"
    p.fetch_many([0])
    assert p.fetch_many([0])[0] is not None


def test_coordl_steady_state_hit_equals_fraction():
    """MinIO: hit ratio == cache fraction once warm (CoorDL's guarantee)."""
    ctx = _ctx(n=400)
    p = CoorDLPolicy(cache_fraction=0.25, rng=0)
    p.setup(ctx)
    # Warm epoch.
    for i in p.epoch_order(0):
        p.fetch_many([int(i)])
    p.cache.stats.reset()
    for epoch in range(1, 4):
        for i in p.epoch_order(epoch):
            p.fetch_many([int(i)])
    assert p.stats().hit_ratio == pytest.approx(0.25, abs=0.005)


def test_coordl_beats_lru():
    ctx_a, ctx_b = _ctx(n=300, seed=2), _ctx(n=300, seed=2)
    lru = LRUBaselinePolicy(cache_fraction=0.3, rng=0)
    lru.setup(ctx_a)
    coordl = CoorDLPolicy(cache_fraction=0.3, rng=0)
    coordl.setup(ctx_b)
    for epoch in range(4):
        for i in lru.epoch_order(epoch):
            lru.fetch_many([int(i)])
        for i in coordl.epoch_order(epoch):
            coordl.fetch_many([int(i)])
    assert coordl.stats().hit_ratio > lru.stats().hit_ratio
