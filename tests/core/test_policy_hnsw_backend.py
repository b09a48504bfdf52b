"""End-to-end SpiderCache with the HNSW neighbor-search backend.

The default backend is exact search (fastest at simulator scale); the
paper's actual index is HNSW. These tests confirm the full policy trains
correctly through the approximate backend and behaves like the exact one.
"""

import numpy as np
import pytest

from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def runs():
    ds = make_clustered_dataset(400, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    out = {}
    for backend in ["exact", "hnsw"]:
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(cache_fraction=0.3, backend=backend, rng=3)
        res = Trainer(model, train, test, policy,
                      TrainerConfig(epochs=6, batch_size=64)).run()
        out[backend] = (res, policy)
    return out


def test_hnsw_backend_trains(runs):
    res, _ = runs["hnsw"]
    assert res.final_accuracy > 0.6


def test_hnsw_backend_hit_ratio_close_to_exact(runs):
    exact, _ = runs["exact"]
    hnsw, _ = runs["hnsw"]
    assert abs(hnsw.mean_hit_ratio - exact.mean_hit_ratio) < 0.15
    assert hnsw.mean_hit_ratio > 0.2


def test_hnsw_backend_scores_meaningful(runs):
    _, policy = runs["hnsw"]
    scores = policy.score_table.scores
    # Scores differentiated (graph found neighbors, not all ln(3)).
    assert len(np.unique(np.round(scores, 4))) > 20
    assert policy.score_table._ever_updated.mean() > 0.5


def test_hnsw_index_tracks_dataset(runs):
    _, policy = runs["hnsw"]
    # Index holds one entry per distinct trained sample.
    assert len(policy.scorer.index) <= 300
    assert len(policy.scorer.index) > 100


def test_hnsw_backend_is_reproducible_per_seed():
    """The index's level draws come from the policy seed, so two same-seed
    runs build the same graph and agree on every score and metric."""
    ds = make_clustered_dataset(300, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    runs = []
    for _ in range(2):
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(cache_fraction=0.3, backend="hnsw", rng=3)
        res = Trainer(model, train, test, policy,
                      TrainerConfig(epochs=3, batch_size=32)).run()
        runs.append((res, policy))
    (res_a, pol_a), (res_b, pol_b) = runs
    np.testing.assert_array_equal(
        pol_a.score_table.scores, pol_b.score_table.scores
    )
    assert res_a.mean_hit_ratio == res_b.mean_hit_ratio
    assert res_a.final_accuracy == res_b.final_accuracy
    assert pol_a.scorer.index._levels == pol_b.scorer.index._levels
