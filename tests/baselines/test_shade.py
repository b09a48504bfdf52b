"""SHADE policy tests."""

import numpy as np
import pytest

from repro.baselines.shade import ShadePolicy, loss_rank_scores
from repro.cache.base import FetchSource
from repro.data.synthetic import make_clustered_dataset
from repro.storage.backends import RemoteStore
from repro.train.policy_base import PolicyContext


def _ctx(n=100, seed=0):
    ds = make_clustered_dataset(n, n_classes=4, dim=8, rng=seed)
    store = RemoteStore(ds.X)
    return PolicyContext(dataset=ds, store=store, total_epochs=5, embedding_dim=8)


# ----------------------------------------------------------------------
# loss_rank_scores
# ----------------------------------------------------------------------
def test_rank_scores_order():
    s = loss_rank_scores(np.array([0.1, 5.0, 2.0]))
    assert s.argmax() == 1
    assert s.argmin() == 0
    assert s[1] == 1.0


def test_rank_scores_bounds():
    s = loss_rank_scores(np.random.default_rng(0).random(50))
    assert s.min() == pytest.approx(0.05)
    assert s.max() == pytest.approx(1.0)


def test_rank_scores_edge_cases():
    assert loss_rank_scores(np.array([])).shape == (0,)
    np.testing.assert_array_equal(loss_rank_scores(np.array([3.0])), [1.0])


def test_rank_scores_scale_invariant():
    """Ranks ignore the loss scale — exactly why SHADE's scores are
    incomparable across epochs (paper Motivation 1)."""
    a = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(loss_rank_scores(a), loss_rank_scores(a * 100))


# ----------------------------------------------------------------------
# policy behaviour
# ----------------------------------------------------------------------
def test_setup_and_fetch():
    p = ShadePolicy(cache_fraction=0.5, rng=0)
    p.setup(_ctx())
    o1 = p.fetch_many([3])[0]
    assert o1.source == FetchSource.REMOTE
    o2 = p.fetch_many([3])[0]
    assert o2.source == FetchSource.IMPORTANCE


def test_after_batch_rank_updates():
    p = ShadePolicy(cache_fraction=0.5, rng=0)
    p.setup(_ctx())
    ids = np.arange(16)
    losses = np.linspace(0.1, 2.0, 16)
    p.after_batch(ids, ids, losses, np.zeros((16, 8)), epoch=0)
    assert p.score_table.get(15) == 1.0  # highest loss -> rank 1.0
    assert p.score_table.get(0) < 0.1


def test_duplicate_ids_last_occurrence_wins():
    p = ShadePolicy(cache_fraction=0.5, rng=0)
    p.setup(_ctx())
    ids = np.array([1, 2, 1])
    losses = np.array([5.0, 1.0, 0.1])  # sample 1 appears twice
    p.after_batch(ids, ids, losses, np.zeros((3, 8)), epoch=0)
    # Last occurrence of 1 had the lowest loss -> lowest rank score.
    assert p.score_table.get(1) < p.score_table.get(2)


def test_sampling_prefers_high_rank():
    p = ShadePolicy(cache_fraction=0.0, rng=0)
    p.setup(_ctx(n=50))
    ids = np.arange(50)
    losses = np.zeros(50)
    losses[7] = 100.0
    p.after_batch(ids, ids, losses, np.zeros((50, 8)), epoch=0)
    order = p.epoch_order(1)
    counts = np.bincount(order, minlength=50)
    assert counts[7] > counts.mean()


def test_after_epoch_snapshots_std():
    p = ShadePolicy(rng=0)
    p.setup(_ctx())
    p.after_epoch(0, 0.5)
    assert len(p.score_table.std_history) == 1


def test_invalid_fraction():
    with pytest.raises(ValueError):
        ShadePolicy(cache_fraction=-0.1)


def test_is_cost_nominal():
    assert ShadePolicy().is_ms_per_batch == 1.0
