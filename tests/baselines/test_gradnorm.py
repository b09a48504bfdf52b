"""Gradient-norm IS policy tests."""

import numpy as np
import pytest

from repro.baselines.gradnorm import GradNormISPolicy, gradnorm_scores
from repro.cache.base import FetchSource
from repro.data.synthetic import make_clustered_dataset
from repro.storage.backends import RemoteStore
from repro.train.policy_base import PolicyContext


def _ctx(n=100, seed=0):
    ds = make_clustered_dataset(n, n_classes=4, dim=8, rng=seed)
    store = RemoteStore(ds.X)
    return PolicyContext(dataset=ds, store=store, total_epochs=5, embedding_dim=8)


def test_scores_bounded_and_monotone():
    losses = np.array([0.0, 0.5, 1.0, 5.0])
    s = gradnorm_scores(losses)
    assert s[0] == 0.0
    assert np.all(np.diff(s) > 0)
    assert np.all((s >= 0) & (s < 1))


def test_scores_negative_loss_rejected():
    with pytest.raises(ValueError):
        gradnorm_scores(np.array([-0.1]))


def test_scores_saturate():
    """Like raw losses, the proxy saturates — high-loss samples become
    indistinguishable (part of the Motivation-1 weakness)."""
    a = gradnorm_scores(np.array([5.0]))[0]
    b = gradnorm_scores(np.array([10.0]))[0]
    assert b - a < 0.01


def test_policy_fetch_and_cache():
    p = GradNormISPolicy(cache_fraction=0.5, rng=0)
    p.setup(_ctx())
    assert p.fetch_many([3])[0].source == FetchSource.REMOTE
    assert p.fetch_many([3])[0].source == FetchSource.IMPORTANCE


def test_policy_score_updates():
    p = GradNormISPolicy(rng=0)
    p.setup(_ctx())
    ids = np.arange(8)
    losses = np.linspace(0.1, 3.0, 8)
    p.after_batch(ids, ids, losses, np.zeros((8, 8)), epoch=0)
    assert p.score_table.get(7) > p.score_table.get(0)
    assert p.score_table.get(7) == pytest.approx(1 - np.exp(-3.0))


def test_policy_trains_end_to_end():
    from repro.data.synthetic import train_test_split
    from repro.nn.models import build_model
    from repro.train.trainer import Trainer, TrainerConfig

    ds = make_clustered_dataset(400, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, rng=1)
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    res = Trainer(model, train, test, GradNormISPolicy(cache_fraction=0.2, rng=3),
                  TrainerConfig(epochs=6, batch_size=64)).run()
    assert res.final_accuracy > 0.5
    assert res.epochs[-1].hit_ratio > 0.1


def test_invalid_fraction():
    with pytest.raises(ValueError):
        GradNormISPolicy(cache_fraction=-0.1)
