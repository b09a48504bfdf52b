#!/usr/bin/env python
"""Elastic cache tuning: trade accuracy against speed with the imp-ratio.

The Elastic Cache Manager (§4.3) anneals the Importance/Homophily split
from ``r_start`` to ``r_end``; a lower ``r_end`` harvests more substitute
hits (faster training) at a small accuracy cost. This example sweeps three
strategies — the paper's Table-6 experiment — and prints the trade-off so
users can pick a point matching their training goals.

Run:  python examples/elastic_tuning.py
"""

import numpy as np

from repro.core.policy import SpiderCachePolicy
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

STRATEGIES = [
    ("accuracy-first (static 90%)", dict(r_start=0.9, r_end=0.9, elastic=False)),
    ("balanced (90% -> 80%)", dict(r_start=0.9, r_end=0.8)),
    ("speed-first (90% -> 50%)", dict(r_start=0.9, r_end=0.5)),
]


def main() -> None:
    data = make_dataset("cifar10-like", rng=0, n_samples=1600)
    train, test = train_test_split(data, test_fraction=0.25, rng=1)

    print(f"{'strategy':<28} {'accuracy':>9} {'time':>7} "
          f"{'late hit':>9} {'final imp-ratio':>15}")
    for name, kw in STRATEGIES:
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(cache_fraction=0.2, rng=3, **kw)
        res = Trainer(model, train, test, policy,
                      TrainerConfig(epochs=14, batch_size=64)).run()
        late_hit = float(np.mean(res.series("hit_ratio")[-4:]))
        print(f"{name:<28} {res.final_accuracy:>9.3f} "
              f"{res.total_time_s:>6.1f}s {late_hit:>9.3f} "
              f"{res.epochs[-1].imp_ratio:>15.2f}")

    print("\nThe manager's per-epoch decisions (balanced strategy):")
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    policy = SpiderCachePolicy(cache_fraction=0.2, r_start=0.9, r_end=0.8, rng=3)
    Trainer(model, train, test, policy,
            TrainerConfig(epochs=14, batch_size=64)).run()
    for d in policy.manager.history:
        print(f"  epoch {d.epoch:>2}: beta={d.beta} u={d.u:.2f} "
              f"imp_ratio={d.imp_ratio:.3f}")


if __name__ == "__main__":
    main()
