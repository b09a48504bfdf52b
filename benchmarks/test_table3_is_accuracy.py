"""E9 — Fig. 13 + Table 3: IS-algorithm comparison with caches disabled.

Paper: SpiderCache's graph-based IS achieves the best accuracy on all three
datasets; SHADE (loss-rank IS) second; iCache's compute-bound IS worst
(skipping backprop costs accuracy); CoorDL is plain random sampling.

Substrate note (DESIGN.md): with a shallow NumPy MLP, uniform sampling is
near-optimal, so CoorDL lands within noise of the IS methods rather than
1-3 points below as on real CIFAR; the ordering *among IS algorithms*
(SpiderCache > SHADE > iCache) is the reproduced claim.
"""

import numpy as np
from conftest import make_split, print_table

from repro.baselines.registry import POLICIES
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

# Class counts scale with sample counts (see test_table4_5_end_to_end.py).
DATASETS = [
    ("cifar10-like", 1200, {}, "resnet18", 15),
    ("cifar100-like", 1500, {"n_classes": 30}, "resnet18", 15),
    ("imagenet-like", 1600, {"n_classes": 25}, "resnet50", 12),
]
NAMES = ["spidercache", "shade", "gradnorm", "icache-imp", "coordl"]
SEEDS = [0, 1]


def _measure():
    results = {}
    for preset, n, overrides, model_name, epochs in DATASETS:
        for policy_name in NAMES:
            accs, losses = [], []
            for seed in SEEDS:
                train, test = make_split(preset, n, seed, **overrides)
                model = build_model(model_name, train.dim, train.num_classes,
                                    rng=seed + 2)
                policy = POLICIES[policy_name](0.0, seed + 3)
                res = Trainer(model, train, test, policy,
                              TrainerConfig(epochs=epochs, batch_size=64)).run()
                accs.append(res.final_accuracy)
                losses.append(res.epochs[-1].train_loss)
            results[(preset, policy_name)] = (
                float(np.mean(accs)), float(np.mean(losses))
            )
    return results


def test_table3_is_accuracy(once, benchmark):
    results = once(_measure)
    rows = []
    for preset, _, _, model_name, _ in DATASETS:
        rows.append(
            (preset, model_name)
            + tuple(f"{results[(preset, p)][0]:.3f}" for p in NAMES)
        )
    print_table(
        "Table 3 / Fig 13: Top-1 accuracy, IS only (caches disabled)",
        ["dataset", "model"] + NAMES,
        rows,
    )
    loss_rows = [
        (preset,) + tuple(f"{results[(preset, p)][1]:.3f}" for p in NAMES)
        for preset, *_ in DATASETS
    ]
    print_table("Fig 13(d-f): final training loss", ["dataset"] + NAMES,
                loss_rows)
    benchmark.extra_info["accuracy"] = {
        f"{k[0]}/{k[1]}": v[0] for k, v in results.items()
    }
    for preset, *_ in DATASETS:
        spider = results[(preset, "spidercache")][0]
        shade = results[(preset, "shade")][0]
        icache = results[(preset, "icache-imp")][0]
        best = max(results[(preset, p)][0] for p in NAMES)
        # SpiderCache matches the best IS algorithm (within seed noise,
        # ±0.03 at this scale) and lands close to the overall best. The
        # paper's +1-2 point IS-over-random margin does not reproduce on the
        # shallow-MLP substrate (see DESIGN.md/EXPERIMENTS.md).
        assert spider >= shade - 0.03, preset
        assert spider >= icache - 0.02, preset
        assert spider >= results[(preset, "gradnorm")][0] - 0.03, preset
        assert spider >= best - 0.08, preset
        # Compute-bound IS never exceeds the graph/rank IS methods.
        assert icache <= max(spider, shade) + 0.01, preset
