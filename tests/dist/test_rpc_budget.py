"""RPC budget gate: the loaders' batch path stays multi-key.

A fault-free run over the simulated transport issues a number of RPCs
that depends on the seed only, so it can gate merges where a timing
cannot: ~0.29 calls per request with one read frame per shard per batch
and victim deletes riding other frames, ~1.09 with a read and a delete
per key (the path before ``fetch_many``). A slide back fails here, in
CI, not in the benchmark.
"""

import pytest

from repro.core.policy import SpiderCachePolicy
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.train.data_parallel import DataParallelTrainer
from repro.train.trainer import TrainerConfig
from tests.train import topologies

pytestmark = pytest.mark.dist

RPC_PER_REQUEST_BUDGET = 0.35


def sharded_run():
    """``(rpc calls, requests, failed ops)`` of one seeded 2-worker,
    2-shard shared-cache run (12 epochs x 300 samples, 32 per worker
    batch)."""
    data = make_dataset("cifar10-like", rng=0, n_samples=400)
    train, test = train_test_split(data, 0.25, rng=1)
    trainer = DataParallelTrainer(
        lambda: build_model("resnet18", train.dim, train.num_classes, rng=2),
        train, test,
        lambda rank: SpiderCachePolicy(cache_fraction=0.75, rng=3),
        world_size=2,
        config=TrainerConfig(epochs=12, batch_size=64, shared_cache=True,
                             cache_shards=2),
        rng=4,
    )
    trainer.run()
    policy = trainer.workers[0].policy
    client = policy.cache
    failed = (client.dropped_admits + client.degraded_lookups
              + client.transport.failures + client.transport.timeouts)
    return client.transport.calls, policy.stats().requests, failed


def test_sharded_epoch_loop_stays_inside_its_rpc_budget():
    calls, requests, failed = sharded_run()
    assert requests == 12 * 300 and failed == 0
    assert calls / requests <= RPC_PER_REQUEST_BUDGET, (calls, requests)
    # The count is a function of the seed: a second execution repeats it.
    assert sharded_run() == (calls, requests, failed)


def test_fault_free_topology_run_sends_a_pinned_rpc_sequence():
    """The ``dp2-shared-2shards`` topology, fault-free: how many RPCs
    reach each shard is a function of the seed. Queued deletes ride
    frames that are sent anyway or leave in the one ``bulk_delete`` a
    victim evicted outside a batch costs, so these counts hold as long
    as no delete path adds or saves a round trip."""
    trainer = topologies.build("dp2-shared-2shards", topologies.dataset())
    trainer.run()
    transport = trainer.workers[0].policy.cache.transport
    assert transport.failures == transport.timeouts == 0
    assert transport.calls == 303
    assert dict(transport.per_shard_calls) == {0: 175, 1: 128}
