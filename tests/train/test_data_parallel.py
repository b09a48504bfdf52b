"""Data-parallel trainer tests: replica sync, learning, time shape."""

import numpy as np
import pytest

from repro.baselines.baseline import LRUBaselinePolicy
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.train.data_parallel import DataParallelTrainer
from repro.train.trainer import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def data():
    ds = make_clustered_dataset(600, n_classes=5, dim=16, rng=0)
    return train_test_split(ds, test_fraction=0.25, rng=1)


def _dp(data, world_size, policy_cls=LRUBaselinePolicy, epochs=4,
        shared_cache=False):
    train, test = data
    return DataParallelTrainer(
        model_factory=lambda: build_model("resnet18", train.dim,
                                          train.num_classes, rng=7),
        train_set=train,
        test_set=test,
        policy_factory=lambda rank: policy_cls(cache_fraction=0.3,
                                               rng=100 + rank),
        world_size=world_size,
        config=TrainerConfig(epochs=epochs, batch_size=64,
                             shared_cache=shared_cache),
        rng=5,
    )


def test_invalid_world_size(data):
    with pytest.raises(ValueError):
        _dp(data, 0)


def test_shards_partition_dataset(data):
    dp = _dp(data, 3)
    all_ids = np.concatenate([w.shard for w in dp.workers])
    assert sorted(all_ids.tolist()) == list(range(len(data[0])))


def test_replicas_identical_at_init(data):
    dp = _dp(data, 3)
    assert dp.replicas_in_sync()


def test_replicas_stay_in_sync_through_training(data):
    dp = _dp(data, 2, epochs=3)
    dp.run()
    assert dp.replicas_in_sync(atol=1e-8)


def test_dp_learns(data):
    res = _dp(data, 2, epochs=8).run()
    # The easy 5-class task converges within the first epoch; the averaged
    # gradients must be driving the shared replicas to high accuracy.
    assert res.final_accuracy > 0.85
    assert res.best_accuracy > 0.9


def test_world_size_one_matches_single_trainer_accuracy(data):
    """K=1 DP is the same algorithm as the plain trainer (modulo the
    sampler's RNG stream); accuracies land close."""
    train, test = data
    dp_res = _dp(data, 1, epochs=6).run()
    model = build_model("resnet18", train.dim, train.num_classes, rng=7)
    single = Trainer(
        model, train, test, LRUBaselinePolicy(cache_fraction=0.3, rng=100),
        TrainerConfig(epochs=6, batch_size=64),
    ).run()
    assert abs(dp_res.final_accuracy - single.final_accuracy) < 0.1


def test_more_workers_faster_epochs(data):
    t2 = _dp(data, 2, epochs=3).run()
    t4 = _dp(data, 4, epochs=3).run()
    assert t4.epochs[-1].epoch_time_s < t2.epochs[-1].epoch_time_s


def test_communication_grows_with_workers(data):
    """Per-epoch time includes a comm term that makes scaling sublinear."""
    t1 = _dp(data, 1, epochs=2).run().epochs[-1].epoch_time_s
    t4 = _dp(data, 4, epochs=2).run().epochs[-1].epoch_time_s
    assert t1 / t4 < 4.0


def test_spider_policy_per_worker_caches(data):
    dp = _dp(data, 2, policy_cls=SpiderCachePolicy, epochs=5)
    res = dp.run()
    assert res.epochs[-1].hit_ratio > 0.15
    # Each worker's cache only holds ids from its own shard space.
    for w in dp.workers:
        local_n = len(w.shard)
        for key in w.policy.cache.importance._items:
            assert 0 <= key < local_n


def test_policy_name_tagged(data):
    res = _dp(data, 2, epochs=1).run()
    assert res.policy_name == "baseline-lru@dp2"


@pytest.mark.parametrize("shared", [False, True], ids=["per-worker", "shared"])
def test_batch_hook_fires_once_per_step_with_the_epochs_accumulator(data, shared):
    """ResilientTrainer's seams exist at any world size: the hook sees every
    slot, each rank's order, and the accumulator EpochMetrics is built from."""
    dp = _dp(data, 2, epochs=1, shared_cache=shared)
    result = dp._new_result()
    calls = []

    def hook(epoch, slot, orders, acc):
        calls.append((epoch, slot, acc, acc.n_batches))
        assert len(orders) == 2
        assert all(len(o) == len(data[0]) // 2 for o in orders)

    dp._run_epoch(0, result, batch_hook=hook)
    per_rank = len(data[0]) // 2
    n_steps = -(-per_rank // dp.workers[0].loader.batch_size)
    assert [(e, s) for e, s, _, _ in calls] == [(0, s) for s in range(n_steps)]
    assert [n for _, _, _, n in calls] == list(range(1, n_steps + 1))
    acc = calls[0][2]
    assert all(a is acc for _, _, a, _ in calls)
    (em,) = result.epochs
    assert em.compute_s == acc.compute_s
    assert em.train_loss == acc.loss / acc.n_seen == acc.loss / len(data[0])
    assert em.comm_s == pytest.approx(n_steps * dp.comm_ms_per_step / 1e3)
