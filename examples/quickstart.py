#!/usr/bin/env python
"""Quickstart: train one model under SpiderCache and read the results.

Builds a CIFAR-10-like synthetic dataset, a small ResNet18-profile model,
and the full SpiderCache policy (graph-based IS + semantic two-layer cache
+ elastic manager), then trains for 10 epochs over a simulated remote
store, printing per-epoch accuracy, cache hit ratio, and the elastic
imp-ratio.

Run:  python examples/quickstart.py
"""

from repro.core.policy import SpiderCachePolicy
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig


def main() -> None:
    # 1. Data: synthetic clustered features standing in for CIFAR-10
    #    (see DESIGN.md for why this preserves the caching behaviour).
    data = make_dataset("cifar10-like", rng=0, n_samples=2000)
    train, test = train_test_split(data, test_fraction=0.25, rng=1)
    print(f"dataset: {len(train)} train / {len(test)} test, "
          f"{train.num_classes} classes, kinds = {train.kind_fractions()}")

    # 2. Model: the 'resnet18' zoo entry (embedding taps + Table-1 costs).
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    print(f"model: resnet18 profile, {model.num_parameters():,} parameters, "
          f"embedding dim {model.embedding_dim}")

    # 3. Policy: full SpiderCache with a 20% cache budget.
    policy = SpiderCachePolicy(cache_fraction=0.2, rng=3)

    # 4. Train. The trainer simulates remote-storage latency; the model
    #    math (forward/backward) is real.
    result = Trainer(model, train, test, policy,
                     TrainerConfig(epochs=10, batch_size=64)).run()

    print(f"\n{'epoch':>5} {'val acc':>8} {'hit':>6} {'subst':>6} "
          f"{'imp-ratio':>9} {'epoch time':>10}")
    for e in result.epochs:
        print(f"{e.epoch:>5} {e.val_accuracy:>8.3f} {e.hit_ratio:>6.3f} "
              f"{e.substitute_ratio:>6.3f} {e.imp_ratio:>9.2f} "
              f"{e.epoch_time_s:>9.2f}s")

    s = result.summary()
    print(f"\nfinal accuracy {s['final_accuracy']:.3f}, "
          f"mean hit ratio {s['mean_hit_ratio']:.3f}, "
          f"total simulated time {s['total_time_s']:.1f}s "
          f"(load {s['data_load_s']:.1f}s / compute {s['compute_s']:.1f}s)")


if __name__ == "__main__":
    main()
