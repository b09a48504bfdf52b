"""Ablation — shared sharded-cache tier vs per-worker caches.

Sweeps the data-parallel cache topology: per-worker caches (each rank
keeps its own ``SemanticCache``) against one shared logical cache,
monolithic (``cache_shards=0``) and partitioned across 2 / 4 shard
servers behind simulated RPC. The shapes asserted:

* the shared tier's aggregate hit ratio strictly beats per-worker caches
  of the same total budget at every world size (no duplicated entries);
* sharding is behaviour-preserving — hit ratio and accuracy match the
  shared monolith exactly, only simulated RPC time is added;
* the added RPC stall is visible but does not dominate the epoch.
"""

import numpy as np
from conftest import make_split, print_table

from repro.core.policy import SpiderCachePolicy
from repro.train.data_parallel import DataParallelTrainer
from repro.train.trainer import TrainerConfig
from repro.nn.models import build_model

WORLD_SIZES = [2, 4]
# (label, shared_cache, cache_shards)
TOPOLOGIES = [
    ("per-worker", False, 0),
    ("shared-mono", True, 0),
    ("shared-2shard", True, 2),
    ("shared-4shard", True, 4),
]
EPOCHS = 5


def _run(train, test, world_size, shared_cache, cache_shards):
    dp = DataParallelTrainer(
        model_factory=lambda: build_model("resnet18", train.dim,
                                          train.num_classes, rng=7),
        train_set=train,
        test_set=test,
        # A shared tier sees one coherent stream, so every rank uses the
        # same policy seed; per-worker caches get independent seeds.
        policy_factory=lambda rank: SpiderCachePolicy(
            cache_fraction=0.3,
            rng=100 if shared_cache else 100 + rank,
        ),
        world_size=world_size,
        config=TrainerConfig(epochs=EPOCHS, batch_size=64,
                             shared_cache=shared_cache,
                             cache_shards=cache_shards),
        rng=5,
    )
    res = dp.run()
    assert dp.replicas_in_sync(atol=1e-8)
    return res


def _measure():
    train, test = make_split("cifar10-like", 1200, seed=0)
    out = {}
    for k in WORLD_SIZES:
        for label, shared, shards in TOPOLOGIES:
            res = _run(train, test, k, shared, shards)
            out[(label, k)] = {
                "hit_ratio": float(np.mean([e.hit_ratio for e in res.epochs])),
                "data_load_s": float(np.sum([e.data_load_s for e in res.epochs])),
                "epoch_time_s": float(np.mean(res.series("epoch_time_s")[1:])),
                "accuracy": res.final_accuracy,
            }
    return out


def test_ablation_shard_topology(once, benchmark):
    out = once(_measure)
    rows = [
        (str(k), label,
         f"{out[(label, k)]['hit_ratio']:.3f}",
         f"{out[(label, k)]['data_load_s']:.2f}s",
         f"{out[(label, k)]['epoch_time_s']:.2f}s",
         f"{out[(label, k)]['accuracy']:.3f}")
        for k in WORLD_SIZES
        for label, _, _ in TOPOLOGIES
    ]
    print_table(
        "Ablation: cache topology across data-parallel workers",
        ["workers", "topology", "hit ratio", "data load", "epoch time", "acc"],
        rows,
    )
    benchmark.extra_info["rows"] = rows

    for k in WORLD_SIZES:
        mono = out[("shared-mono", k)]
        # The headline claim: one shared cache strictly beats per-worker
        # caches of the same aggregate budget.
        assert mono["hit_ratio"] > out[("per-worker", k)]["hit_ratio"], k
        for label in ("shared-2shard", "shared-4shard"):
            sharded = out[(label, k)]
            # Sharding preserves behaviour bit-for-bit...
            assert sharded["hit_ratio"] == mono["hit_ratio"], (label, k)
            assert sharded["accuracy"] == mono["accuracy"], (label, k)
            # ...and only adds simulated RPC time to the load stage:
            # noticeable, but far from doubling the epoch.
            assert sharded["data_load_s"] > mono["data_load_s"], (label, k)
            rpc_stall = sharded["epoch_time_s"] - mono["epoch_time_s"]
            assert 0.0 < rpc_stall < mono["epoch_time_s"], (label, k)
