"""Trainer stage-cost resolution tests."""

import pytest

from repro.baselines.shade import ShadePolicy
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_cnn_model, build_model
from repro.train.policy_base import TrainingPolicy
from repro.train.trainer import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def data():
    ds = make_clustered_dataset(200, n_classes=4, dim=8, rng=0)
    return train_test_split(ds, rng=1)


def _trainer(data, model_name, policy):
    train, test = data
    model = build_model(model_name, train.dim, train.num_classes, rng=2)
    return Trainer(model, train, test, policy, TrainerConfig(epochs=1))


def test_spec_costs_used(data):
    t = _trainer(data, "vgg16", SpiderCachePolicy(rng=3))
    c = t._stage_costs()
    assert (c.stage1_ms, c.stage2_ms, c.is_ms) == (56.0, 28.0, 31.0)


def test_cheap_policy_overrides_is_cost(data):
    """SHADE's 1ms loss-rank IS replaces the graph-IS cost in the model."""
    t = _trainer(data, "resnet18", ShadePolicy(rng=3))
    c = t._stage_costs()
    assert c.is_ms == 1.0
    assert c.stage1_ms == 42.0


def test_no_cache_policy_zero_is(data):
    t = _trainer(data, "resnet18", TrainingPolicy(rng=3))
    assert t._stage_costs().is_ms == 0.0


def test_custom_model_fallback_costs(data):
    train, test = data

    class Flat:
        def __init__(self, inner):
            self.inner = inner
            self.spec = None
            self.embedding_dim = 16

        def params(self):
            return self.inner.params()

        def train_batch(self, x, y, w=None):
            return self.inner.train_batch(x.reshape(-1, 1, 4, 2), y, w)

        def evaluate(self, x, y, batch_size=256):
            return self.inner.evaluate(x.reshape(-1, 1, 4, 2), y)

    model = Flat(build_cnn_model((1, 4, 2), 4, channels=(2,),
                                 embedding_dim=16, rng=0))
    t = Trainer(model, train, test, TrainingPolicy(rng=3), TrainerConfig(epochs=1))
    c = t._stage_costs()
    # Fallback: resnet18-like stage costs with the policy's IS.
    assert (c.stage1_ms, c.stage2_ms) == (42.0, 35.0)
