"""Importance-driven prefetching tests (paper §4.2)."""

import numpy as np
import pytest

from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.storage.backends import RemoteStore
from repro.train.policy_base import PolicyContext
from repro.train.trainer import Trainer, TrainerConfig


def _ctx(n=200, seed=0):
    ds = make_clustered_dataset(n, n_classes=4, dim=8, rng=seed)
    store = RemoteStore(ds.X, item_nbytes=ds.item_nbytes)
    return PolicyContext(dataset=ds, store=store, total_epochs=10, embedding_dim=16)


def test_invalid_fraction():
    with pytest.raises(ValueError):
        SpiderCachePolicy(prefetch_fraction=1.5)


def test_no_prefetch_at_epoch_zero():
    p = SpiderCachePolicy(cache_fraction=0.5, prefetch_fraction=1.0, rng=0)
    ctx = _ctx()
    p.setup(ctx)
    p.before_epoch(0)
    assert p.prefetch_count == 0
    assert len(p.cache.importance) == 0


def test_prefetch_fills_with_top_scores():
    p = SpiderCachePolicy(cache_fraction=0.5, prefetch_fraction=1.0, rng=0)
    ctx = _ctx()
    p.setup(ctx)
    scores = np.linspace(0.01, 1.0, 200)
    p.score_table.update(np.arange(200), scores)
    p.before_epoch(1)
    imp = p.cache.importance
    assert len(imp) == imp.capacity
    # The cached set is exactly the top-capacity scored samples.
    expected = set(range(200 - imp.capacity, 200))
    assert set(imp._items) == expected
    assert p.prefetch_count == imp.capacity
    assert ctx.store.fetch_count == imp.capacity  # prefetches are real I/O


def test_prefetch_budget_respected():
    p = SpiderCachePolicy(cache_fraction=0.5, prefetch_fraction=0.2, rng=0)
    ctx = _ctx()
    p.setup(ctx)
    p.score_table.update(np.arange(200), np.linspace(0.01, 1.0, 200))
    p.before_epoch(1)
    assert p.prefetch_count == int(0.2 * p.cache.importance.capacity)


def test_prefetch_skips_resident_samples():
    p = SpiderCachePolicy(cache_fraction=0.5, prefetch_fraction=1.0, rng=0)
    ctx = _ctx()
    p.setup(ctx)
    p.score_table.update(np.arange(200), np.linspace(0.01, 1.0, 200))
    p.fetch_many([199])  # already resident with top score
    before = ctx.store.fetch_count
    p.before_epoch(1)
    assert 199 in p.cache.importance
    # 199 was not fetched twice.
    assert ctx.store.fetch_count == before + p.prefetch_count


def test_prefetch_zero_fraction_noop():
    p = SpiderCachePolicy(cache_fraction=0.5, prefetch_fraction=0.0, rng=0)
    ctx = _ctx()
    p.setup(ctx)
    p.score_table.update(np.arange(200), np.linspace(0.01, 1.0, 200))
    p.before_epoch(3)
    assert ctx.store.fetch_count == 0


def test_prefetch_improves_early_hit_ratio():
    """End to end: prefetching raises hit ratio in the epochs right after
    scores first populate."""
    ds = make_clustered_dataset(600, n_classes=6, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)

    def run(pf):
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(cache_fraction=0.2, prefetch_fraction=pf,
                                   rng=3)
        res = Trainer(model, train, test, policy,
                      TrainerConfig(epochs=6, batch_size=64)).run()
        return res

    plain = run(0.0)
    prefetched = run(0.5)
    early_plain = float(np.mean(plain.series("hit_ratio")[1:4]))
    early_pref = float(np.mean(prefetched.series("hit_ratio")[1:4]))
    assert early_pref > early_plain
