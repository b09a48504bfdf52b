"""SpiderCachePolicy tests against a real trainer context."""

import numpy as np
import pytest

from repro.cache.base import FetchSource
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset
from repro.storage.backends import RemoteStore
from repro.train.policy_base import PolicyContext


def _ctx(n=200, classes=4, seed=0):
    ds = make_clustered_dataset(n, n_classes=classes, dim=8, rng=seed)
    store = RemoteStore(ds.X, item_nbytes=ds.item_nbytes)
    return PolicyContext(dataset=ds, store=store, total_epochs=10, embedding_dim=16)


def _setup_policy(**kw):
    ctx = _ctx()
    p = SpiderCachePolicy(rng=2, **kw)
    p.setup(ctx)
    return p, ctx


def test_setup_builds_components():
    p, ctx = _setup_policy(cache_fraction=0.2)
    assert p.score_table is not None and len(p.score_table) == 200
    assert p.cache is not None and p.cache.total_capacity == 40
    assert p.scorer is not None
    assert p.manager is not None


def test_use_before_setup_raises():
    p = SpiderCachePolicy()
    with pytest.raises(RuntimeError):
        p._require_ctx()


def test_invalid_params():
    with pytest.raises(ValueError):
        SpiderCachePolicy(cache_fraction=1.5)
    with pytest.raises(ValueError):
        SpiderCachePolicy(hom_neighbor_limit=0)


def test_epoch_order_length_and_range():
    p, ctx = _setup_policy()
    order = p.epoch_order(0)
    assert len(order) == 200
    assert order.min() >= 0 and order.max() < 200


def test_fetch_miss_then_hit():
    p, ctx = _setup_policy(cache_fraction=0.5)
    o1 = p.fetch_many([3])[0]
    assert o1.source == FetchSource.REMOTE
    o2 = p.fetch_many([3])[0]
    assert o2.source == FetchSource.IMPORTANCE
    np.testing.assert_array_equal(o2.payload, ctx.dataset.X[3])


def test_stats_admissions_and_evictions_are_the_layer_sums():
    p, ctx = _setup_policy(cache_fraction=0.05)
    p.score_table.update(np.arange(30), np.linspace(1.0, 2.0, 30))
    for i in range(30):  # each score beats the resident minimum
        p.fetch_many([i])
    p.cache.update_homophily(100, ctx.dataset.X[100], [101])
    counts, stats = p.cache.counters(), p.stats()
    assert stats.insertions == (
        counts["importance.admitted"] + counts["homophily.insertions"]
    ) == 31
    assert stats.evictions == counts["importance.evictions"] > 0


def test_after_batch_updates_scores():
    p, ctx = _setup_policy()
    ids = np.arange(32)
    emb = np.random.default_rng(3).normal(size=(32, 16))
    losses = np.ones(32)
    p.after_batch(ids, ids, losses, emb, epoch=0)
    assert p.score_table._ever_updated.mean() > 0
    assert len(p.scorer.index) == 32


def test_after_batch_duplicate_served_ids():
    """With-replacement sampling repeats ids; scoring must deduplicate."""
    p, ctx = _setup_policy()
    ids = np.array([1, 2, 1, 3, 2, 1])
    emb = np.random.default_rng(4).normal(size=(6, 16))
    p.after_batch(ids, ids, np.ones(6), emb, epoch=0)
    assert len(p.scorer.index) == 3


def test_homophily_updated_with_top_degree_node():
    p, ctx = _setup_policy(cache_fraction=0.5)
    # Two tight same-class sub-clusters far apart: the auto-calibrated
    # radius (a fraction of the median distance) then captures the
    # within-cluster neighbors.
    labels = ctx.dataset.y
    cls0 = np.flatnonzero(labels == labels[0])[:20]
    rng = np.random.default_rng(5)
    emb = np.concatenate([
        rng.normal(0.0, 0.01, size=(10, 16)),
        rng.normal(3.0, 0.01, size=(10, 16)),
    ])
    p.after_batch(cls0, cls0, np.ones(20), emb, epoch=0)
    assert len(p.cache.homophily) == 1


def test_homophily_neighbor_class_filter():
    p, ctx = _setup_policy(cache_fraction=0.5, hom_same_class_only=True)
    labels = ctx.dataset.y
    # Mixed-class tight cluster: filtered neighbor lists stay same-class.
    ids = np.arange(20)
    emb = np.random.default_rng(6).normal(0, 0.01, size=(20, 16))
    p.after_batch(ids, ids, np.ones(20), emb, epoch=0)
    for key, neighbors in p.cache.homophily._items.items():
        for n in neighbors:
            assert labels[n] == labels[key]


def test_hom_neighbor_limit_respected():
    p, ctx = _setup_policy(cache_fraction=0.5, hom_neighbor_limit=3,
                           hom_same_class_only=False)
    ids = np.arange(30)
    emb = np.random.default_rng(7).normal(0, 0.01, size=(30, 16))
    p.after_batch(ids, ids, np.ones(30), emb, epoch=0)
    for neighbors in p.cache.homophily._items.values():
        assert len(neighbors) <= 3


def test_after_epoch_elastic_adjusts():
    p, ctx = _setup_policy(cache_fraction=0.5, elastic=True)
    # Feed a rise-then-fall std by direct injection + accuracy plateau.
    for e in range(10):
        ids = np.random.default_rng(e).integers(0, 200, 32)
        uniq = np.unique(ids)
        emb = np.random.default_rng(100 + e).normal(size=(len(ids), 16))
        p.after_batch(ids, ids, np.ones(len(ids)), emb, epoch=e)
        p.after_epoch(e, val_accuracy=0.5)
    assert len(p.score_table.std_history) == 10
    assert len(p.manager.history) == 10


def test_elastic_disabled_keeps_ratio():
    p, ctx = _setup_policy(cache_fraction=0.5, elastic=False, r_start=0.9)
    for e in range(5):
        p.after_epoch(e, 0.5)
    assert p.imp_ratio == 0.9


def test_stats_delegates_to_cache():
    p, ctx = _setup_policy(cache_fraction=0.5)
    p.fetch_many([0])
    p.fetch_many([0])
    s = p.stats()
    assert s.requests == 2
    assert s.hits == 1


def test_fetch_many_is_the_fetch_loop():
    """Same outcomes, same stats, same admissions as fetching one by one."""
    ids = np.random.default_rng(0).integers(0, 40, size=120)
    one, _ = _setup_policy(cache_fraction=0.1)
    many, _ = _setup_policy(cache_fraction=0.1)
    want = [one.fetch_many([int(i)])[0] for i in ids]
    got = []
    for start in range(0, len(ids), 16):
        got.extend(many.fetch_many(ids[start:start + 16]))
    assert [(o.requested_id, o.served_id, o.source) for o in got] == \
        [(o.requested_id, o.served_id, o.source) for o in want]
    assert many.stats() == one.stats()
    assert list(many.cache.importance._items) == list(one.cache.importance._items)


def test_is_only_mode_zero_cache():
    p, ctx = _setup_policy(cache_fraction=0.0)
    out = p.fetch_many([5])[0]
    assert out.source == FetchSource.REMOTE
    out = p.fetch_many([5])[0]
    assert out.source == FetchSource.REMOTE  # nothing cached
    assert p.stats().hit_ratio == 0.0


def test_mixed_weights_all_zero_scores_uniform_fallback():
    """Regression: all-zero scores (whose relative floor is zero) made
    ``_mixed_weights`` divide by zero and poison the multinomial draw
    with NaNs."""
    p, ctx = _setup_policy()
    n = ctx.num_samples
    p.score_table.update(np.arange(n), np.zeros(n))
    w = p._mixed_weights()
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w, np.full(n, 1.0 / n))
    # The epoch order still draws cleanly from the degenerate weights.
    order = p.epoch_order(1)
    assert len(order) == n


def test_mixed_weights_normal_scores_sum_to_one():
    p, ctx = _setup_policy()
    n = ctx.num_samples
    rng = np.random.default_rng(0)
    p.score_table.update(np.arange(n), rng.random(n) + 0.1)
    w = p._mixed_weights()
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(1.0)
