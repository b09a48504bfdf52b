#!/usr/bin/env python
"""Data-parallel training: sharded vs shared caches across workers.

Runs real synchronous data parallelism (replicas + gradient averaging) in
both cache deployments:

* **sharded** — each worker owns a fixed data partition with its own cache
  (the DistributedSampler convention);
* **shared** — all workers fetch through one global SpiderCache (the
  paper's multi-GPU setup: one Redis shared by every GPU), with each
  epoch's importance order split round-robin.

Also checkpoints mid-run and resumes, exercising the spot-VM recovery path.

Run:  python examples/data_parallel_training.py
"""

from pathlib import Path
import tempfile

from repro.core.policy import SpiderCachePolicy
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.resilience.state import load_state, save_state
from repro.train.data_parallel import DataParallelTrainer
from repro.train.trainer import TrainerConfig

WORLD_SIZE = 4
EPOCHS = 6


def main() -> None:
    data = make_dataset("cifar10-like", rng=0, n_samples=1600)
    train, test = train_test_split(data, test_fraction=0.25, rng=1)

    print(f"{'deployment':<10} {'final acc':>9} {'hit ratio':>9} "
          f"{'epoch time':>10} {'in sync':>8}")
    for shared in [False, True]:
        dp = DataParallelTrainer(
            model_factory=lambda: build_model("resnet18", train.dim,
                                              train.num_classes, rng=7),
            train_set=train,
            test_set=test,
            policy_factory=lambda rank: SpiderCachePolicy(
                cache_fraction=0.2, rng=100 + rank),
            world_size=WORLD_SIZE,
            config=TrainerConfig(epochs=EPOCHS, batch_size=64,
                                 shared_cache=shared),
            rng=5,
        )
        res = dp.run()
        name = "shared" if shared else "sharded"
        print(f"{name:<10} {res.final_accuracy:>9.3f} "
              f"{res.epochs[-1].hit_ratio:>9.3f} "
              f"{res.epochs[-1].epoch_time_s:>9.2f}s "
              f"{str(dp.replicas_in_sync(1e-8)):>8}")

    # --- Checkpoint/resume (spot-VM termination recovery) ----------------
    print("\ncheckpoint/resume demo:")
    dp = DataParallelTrainer(
        model_factory=lambda: build_model("resnet18", train.dim,
                                          train.num_classes, rng=7),
        train_set=train, test_set=test,
        policy_factory=lambda rank: SpiderCachePolicy(cache_fraction=0.2,
                                                      rng=100 + rank),
        world_size=2,
        config=TrainerConfig(epochs=3, batch_size=64),
        rng=5,
    )
    dp.run()
    w0 = dp.workers[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = save_state(Path(tmp) / "dp.npz", {
            "model": w0.model.state_dict(), "epoch": 3, "world_size": 2,
        })
        fresh = build_model("resnet18", train.dim, train.num_classes, rng=99)
        fresh.load_state_dict(load_state(path)["model"])
        acc_saved, _ = w0.model.evaluate(test.X, test.y)
        acc_restored, _ = fresh.evaluate(test.X, test.y)
        print(f"  saved-model accuracy    {acc_saved:.3f}")
        print(f"  restored-model accuracy {acc_restored:.3f} (identical weights)")


if __name__ == "__main__":
    main()
