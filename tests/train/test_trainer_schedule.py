"""Trainer LR-schedule integration tests."""

import pytest

from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.train.policy_base import TrainingPolicy
from repro.train.trainer import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def data():
    ds = make_clustered_dataset(300, n_classes=4, dim=8, rng=0)
    return train_test_split(ds, rng=1)


def _trainer(data, **cfg_kw):
    train, test = data
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    return Trainer(model, train, test, TrainingPolicy(rng=3),
                   TrainerConfig(epochs=4, batch_size=64, **cfg_kw))


def test_default_constant_lr(data):
    t = _trainer(data)
    t.optimizer.set_epoch(3)
    assert t.optimizer.current_lr == t.config.lr


def test_cosine_string(data):
    t = _trainer(data, lr_schedule="cosine")
    t.optimizer.set_epoch(4)
    assert t.optimizer.current_lr == pytest.approx(0.0, abs=1e-12)


def test_unknown_string_rejected(data):
    with pytest.raises(ValueError):
        _trainer(data, lr_schedule="exponential")


def test_run_with_schedule_trains(data):
    t = _trainer(data, lr_schedule="cosine")
    res = t.run()
    assert res.final_accuracy > 0.5
