"""Trainer tests: time accounting, policy integration, learning."""

import pytest

from repro.baselines.baseline import CoorDLPolicy, LRUBaselinePolicy
from repro.baselines.icache import ICacheImpPolicy
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import Model, build_model
from repro.storage.backends import RemoteStore
from repro.storage.latency import ConstantLatency
from repro.train.metrics import IO_WORKERS
from repro.train.policy_base import TrainingPolicy
from repro.train.trainer import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def data():
    ds = make_clustered_dataset(400, n_classes=4, dim=16, rng=0)
    return train_test_split(ds, test_fraction=0.25, rng=1)


def _train(data, policy, epochs=3, **cfg_kw):
    train, test = data
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    cfg = TrainerConfig(epochs=epochs, batch_size=64, **cfg_kw)
    return Trainer(model, train, test, policy, cfg).run()


def test_run_produces_epoch_metrics(data):
    res = _train(data, TrainingPolicy(rng=3), epochs=3)
    assert len(res.epochs) == 3
    assert res.policy_name == "no-cache"
    assert res.model_name == "resnet18"
    for e in res.epochs:
        assert e.epoch_time_s > 0
        assert e.data_load_s > 0
        assert e.compute_s > 0


def test_model_learns_through_trainer(data):
    res = _train(data, TrainingPolicy(rng=3), epochs=8)
    assert res.epochs[-1].val_accuracy > res.epochs[0].val_accuracy
    assert res.final_accuracy > 0.5


def test_no_cache_policy_zero_hits(data):
    res = _train(data, TrainingPolicy(rng=3))
    assert all(e.hit_ratio == 0.0 for e in res.epochs)


def test_cache_policy_nonzero_hits(data):
    res = _train(data, CoorDLPolicy(cache_fraction=0.5, rng=3), epochs=3)
    assert res.epochs[-1].hit_ratio > 0.3


def test_hits_reduce_data_load_time(data):
    slow = _train(data, TrainingPolicy(rng=3), epochs=3)
    fast = _train(data, CoorDLPolicy(cache_fraction=0.8, rng=3), epochs=3)
    assert fast.epochs[-1].data_load_s < slow.epochs[-1].data_load_s


def test_io_workers_divide_load(data):
    train, test = data
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    trainer = Trainer(
        model, train, test, TrainingPolicy(rng=3),
        TrainerConfig(epochs=1, batch_size=64),
    )
    res = trainer.run()
    remote_s = trainer.clock.stage_seconds(RemoteStore.STAGE)
    assert remote_s > 0
    assert res.epochs[0].data_load_s == pytest.approx(remote_s / IO_WORKERS)


def test_selective_backprop_reduces_compute(data):
    full = _train(data, ICacheImpPolicy(cache_fraction=0.0, skip_quantile=0.0, rng=3))
    skip = _train(data, ICacheImpPolicy(cache_fraction=0.0, skip_quantile=0.5, rng=3))
    assert skip.epochs[-1].compute_s < full.epochs[-1].compute_s


def test_is_visible_time_hidden_for_resnet(data):
    """ResNet18's 16ms IS fits inside its 35ms Stage2 (Fig. 12(a))."""
    res = _train(data, SpiderCachePolicy(cache_fraction=0.2, rng=3))
    assert all(e.is_visible_s == 0.0 for e in res.epochs)


def test_spider_policy_full_integration(data):
    res = _train(data, SpiderCachePolicy(cache_fraction=0.3, rng=3), epochs=6)
    assert res.epochs[-1].hit_ratio > 0.2
    assert res.epochs[-1].imp_ratio is not None
    assert res.epochs[-1].score_std is not None
    assert res.final_accuracy > 0.4


def test_loader_is_wired_to_the_policys_batch_entry(data):
    train, test = data
    policy = SpiderCachePolicy(cache_fraction=0.3, rng=3)
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    cfg = TrainerConfig(epochs=1, batch_size=64)
    trainer = Trainer(model, train, test, policy, cfg)
    assert trainer.loader.fetch_many == policy.fetch_many


def test_latency_model_injected(data):
    fast = _train(data, TrainingPolicy(rng=3), epochs=1)
    train, test = data
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    slow = Trainer(
        model, train, test, TrainingPolicy(rng=3),
        TrainerConfig(epochs=1, batch_size=64),
    )
    slow.store.latency = ConstantLatency(base_s=0.01)
    slow = slow.run()
    assert slow.epochs[0].data_load_s > fast.epochs[0].data_load_s


def test_epoch_time_is_sum_of_stages(data):
    res = _train(data, LRUBaselinePolicy(cache_fraction=0.2, rng=3))
    for e in res.epochs:
        assert e.epoch_time_s == pytest.approx(
            e.data_load_s + e.compute_s + e.is_visible_s
        )


def test_every_epoch_evaluates(data, monkeypatch):
    calls = []
    evaluate = Model.evaluate
    monkeypatch.setattr(
        Model, "evaluate", lambda self, *a: calls.append(1) or evaluate(self, *a)
    )
    res = _train(data, TrainingPolicy(rng=3), epochs=4)
    assert len(res.epochs) == len(calls) == 4
