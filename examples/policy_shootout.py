#!/usr/bin/env python
"""Policy shoot-out: SpiderCache vs every baseline on one workload.

Reproduces the paper's end-to-end comparison (§6.4) in miniature: five
policies, the same dataset/model/budget, reporting hit ratio, accuracy,
and simulated training time — the three axes of Fig. 1.

Run:  python examples/policy_shootout.py
"""

from repro.baselines.baseline import CoorDLPolicy, LRUBaselinePolicy
from repro.baselines.icache import ICacheFullPolicy
from repro.baselines.shade import ShadePolicy
from repro.core.policy import SpiderCachePolicy
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

CACHE_FRACTION = 0.2
EPOCHS = 12


def main() -> None:
    data = make_dataset("cifar10-like", rng=0, n_samples=1600)
    train, test = train_test_split(data, test_fraction=0.25, rng=1)

    policies = [
        SpiderCachePolicy(cache_fraction=CACHE_FRACTION, rng=3),
        ShadePolicy(cache_fraction=CACHE_FRACTION, rng=3),
        ICacheFullPolicy(cache_fraction=CACHE_FRACTION, rng=3),
        CoorDLPolicy(cache_fraction=CACHE_FRACTION, rng=3),
        LRUBaselinePolicy(cache_fraction=CACHE_FRACTION, rng=3),
    ]

    results = []
    for policy in policies:
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        res = Trainer(model, train, test, policy,
                      TrainerConfig(epochs=EPOCHS, batch_size=64)).run()
        results.append(res)
        print(f"finished {policy.name}")

    baseline_time = next(
        r.total_time_s for r in results if r.policy_name == "baseline-lru"
    )
    print(f"\n{'policy':<14} {'hit ratio':>9} {'accuracy':>9} "
          f"{'time':>7} {'speed-up':>8}")
    for res in results:
        print(f"{res.policy_name:<14} {res.mean_hit_ratio:>9.3f} "
              f"{res.final_accuracy:>9.3f} {res.total_time_s:>6.1f}s "
              f"{baseline_time / res.total_time_s:>7.2f}x")


if __name__ == "__main__":
    main()
