"""Base TrainingPolicy contract tests."""

import numpy as np
import pytest

from repro.cache.base import CacheStats, FetchSource
from repro.data.synthetic import make_clustered_dataset
from repro.storage.backends import RemoteStore
from repro.train.policy_base import PolicyContext, TrainingPolicy


def _ctx(n=50):
    ds = make_clustered_dataset(n, n_classes=4, dim=8, rng=0)
    store = RemoteStore(ds.X)
    return PolicyContext(dataset=ds, store=store, total_epochs=3, embedding_dim=8)


def test_unbound_policy_raises():
    p = TrainingPolicy(rng=0)
    with pytest.raises(RuntimeError):
        p.epoch_order(0)
    with pytest.raises(RuntimeError):
        p.fetch_many([0])


def test_default_epoch_order_permutation():
    p = TrainingPolicy(rng=0)
    p.setup(_ctx())
    order = p.epoch_order(0)
    assert sorted(order.tolist()) == list(range(50))
    assert not np.array_equal(p.epoch_order(1), order)


def test_default_fetch_always_remote():
    p = TrainingPolicy(rng=0)
    ctx = _ctx()
    p.setup(ctx)
    for _ in range(3):
        out = p.fetch_many([7])[0]
        assert out.source == FetchSource.REMOTE
        assert out.served_id == 7
    assert ctx.store.fetch_count == 3


def test_default_fetch_many_is_fetch_per_id_in_order():
    p = TrainingPolicy(rng=0)
    ctx = _ctx()
    p.setup(ctx)
    outs = p.fetch_many(np.array([7, 3, 7]))
    assert [(o.requested_id, o.source) for o in outs] == \
        [(7, FetchSource.REMOTE), (3, FetchSource.REMOTE), (7, FetchSource.REMOTE)]
    assert ctx.store.fetch_count == 3


def test_default_hooks_are_noops():
    p = TrainingPolicy(rng=0)
    p.setup(_ctx())
    p.before_epoch(0)
    p.after_batch(np.arange(4), np.arange(4), np.ones(4), np.zeros((4, 8)), 0)
    p.after_epoch(0, 0.5)
    assert p.backprop_mask(np.arange(4), np.ones(4)) is None


def test_default_stats_empty():
    p = TrainingPolicy(rng=0)
    s = p.stats()
    assert isinstance(s, CacheStats)
    assert s.requests == 0
    assert p.imp_ratio is None
    assert p.is_ms_per_batch == 0.0


def test_context_num_samples():
    ctx = _ctx(37)
    assert ctx.num_samples == 37
