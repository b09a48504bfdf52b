"""Shared-cache data-parallel tests (the paper's multi-GPU deployment)."""

import numpy as np
import pytest

from repro.baselines.baseline import CoorDLPolicy
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.train.data_parallel import DataParallelTrainer
from repro.train.trainer import TrainerConfig


@pytest.fixture(scope="module")
def data():
    ds = make_clustered_dataset(600, n_classes=5, dim=16, rng=0)
    return train_test_split(ds, test_fraction=0.25, rng=1)


def _dp(data, world_size, shared, policy_cls=SpiderCachePolicy, epochs=5):
    train, test = data
    return DataParallelTrainer(
        model_factory=lambda: build_model("resnet18", train.dim,
                                          train.num_classes, rng=7),
        train_set=train,
        test_set=test,
        policy_factory=lambda rank: policy_cls(cache_fraction=0.2,
                                               rng=100 + rank),
        world_size=world_size,
        config=TrainerConfig(epochs=epochs, batch_size=64, shared_cache=shared),
        rng=5,
    )


def test_single_policy_instance(data):
    dp = _dp(data, 3, shared=True)
    assert dp.workers[0].policy is dp.workers[1].policy is dp.workers[2].policy
    assert dp.workers[0].store is dp.workers[2].store


def test_sharded_mode_distinct_policies(data):
    dp = _dp(data, 3, shared=False)
    assert dp.workers[0].policy is not dp.workers[1].policy


def test_shared_workers_cover_global_order(data):
    """Round-robin split partitions every epoch's global order exactly."""
    dp = _dp(data, 3, shared=True)
    order = dp.workers[0].policy.epoch_order(0)
    parts = [order[r::3] for r in range(3)]
    recombined = np.concatenate(parts)
    assert sorted(recombined.tolist()) == sorted(order.tolist())


def test_shared_mode_trains_and_syncs(data):
    dp = _dp(data, 2, shared=True)
    res = dp.run()
    assert res.final_accuracy > 0.8
    assert dp.replicas_in_sync(atol=1e-8)
    assert res.epochs[-1].hit_ratio > 0.2


def test_shared_cache_beats_sharded_caches(data):
    """One global cache sees every worker's accesses, so the pooled hit
    ratio is at least as good as isolated per-shard caches."""
    shared = _dp(data, 4, shared=True).run()
    sharded = _dp(data, 4, shared=False).run()
    assert shared.epochs[-1].hit_ratio >= sharded.epochs[-1].hit_ratio - 0.05


def test_shared_mode_with_coordl(data):
    res = _dp(data, 2, shared=True, policy_cls=CoorDLPolicy).run()
    # Warm MinIO over the global id space: hit -> cache fraction.
    assert res.epochs[-1].hit_ratio == pytest.approx(0.2, abs=0.03)


def test_shared_epoch_time_scales(data):
    t1 = _dp(data, 1, shared=True, epochs=2).run().epochs[-1].epoch_time_s
    t4 = _dp(data, 4, shared=True, epochs=2).run().epochs[-1].epoch_time_s
    assert t4 < t1
