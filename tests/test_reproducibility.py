"""Seed reproducibility: identical seeds give bit-identical runs for every
policy — the property that makes the benchmark numbers in EXPERIMENTS.md
deterministic reruns."""

import numpy as np
import pytest

from repro.baselines.baseline import CoorDLPolicy, LRUBaselinePolicy
from repro.baselines.gradnorm import GradNormISPolicy
from repro.baselines.icache import ICacheFullPolicy
from repro.baselines.shade import ShadePolicy
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

POLICIES = [
    SpiderCachePolicy,
    ShadePolicy,
    ICacheFullPolicy,
    GradNormISPolicy,
    CoorDLPolicy,
    LRUBaselinePolicy,
]


@pytest.fixture(scope="module")
def data():
    ds = make_clustered_dataset(300, n_classes=4, dim=8, rng=0)
    return train_test_split(ds, rng=1)


def _run(data, policy_cls):
    train, test = data
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    policy = policy_cls(cache_fraction=0.25, rng=3)
    return Trainer(model, train, test, policy,
                   TrainerConfig(epochs=4, batch_size=64)).run()


@pytest.mark.parametrize("policy_cls", POLICIES,
                         ids=lambda c: c.__name__)
def test_identical_seeds_identical_runs(data, policy_cls):
    a = _run(data, policy_cls)
    b = _run(data, policy_cls)
    np.testing.assert_array_equal(a.series("val_accuracy"),
                                  b.series("val_accuracy"))
    np.testing.assert_array_equal(a.series("hit_ratio"), b.series("hit_ratio"))
    np.testing.assert_allclose(a.series("epoch_time_s"),
                               b.series("epoch_time_s"))
    np.testing.assert_allclose(a.series("train_loss"), b.series("train_loss"))


def test_different_seed_different_run(data):
    train, test = data
    outs = []
    for seed in [3, 4]:
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(cache_fraction=0.25, rng=seed)
        outs.append(Trainer(model, train, test, policy,
                            TrainerConfig(epochs=4, batch_size=64)).run())
    assert not np.array_equal(outs[0].series("train_loss"),
                              outs[1].series("train_loss"))


def test_dataset_generation_reproducible():
    a = make_clustered_dataset(150, n_classes=5, dim=8, class_skew=1.0,
                               nuisance_dims=4, nuisance_std=3.0, rng=9)
    b = make_clustered_dataset(150, n_classes=5, dim=8, class_skew=1.0,
                               nuisance_dims=4, nuisance_std=3.0, rng=9)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.kinds, b.kinds)
    np.testing.assert_array_equal(a.modes, b.modes)
