"""E11 + E12 — Fig. 15, Table 4 (training time), Table 5 (accuracy).

Paper setup: 20% cache, full policies enabled, imp-ratio 90%→80%.
SpiderCache achieves up to 2.33x (avg 2.21x) speed-up over the LRU
baseline with the best accuracy; SHADE similar accuracy but slower;
iCache faster than SHADE but loses accuracy; CoorDL and Baseline slowest.
"""

import numpy as np
from conftest import make_split, print_table

from repro.baselines.registry import POLICIES
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

# Scaled-down datasets: class counts shrink with sample counts so the
# per-class abundance (and hence graph density / sampling concentration)
# matches the full-size presets rather than starving every class.
DATASETS = [
    ("cifar10-like", 1200, {}, "resnet18", 15),
    ("cifar100-like", 1500, {"n_classes": 30}, "resnet18", 15),
    ("imagenet-like", 1600, {"n_classes": 25}, "resnet50", 12),
]
NAMES = ["spidercache", "shade", "icache", "coordl", "baseline"]
SEEDS = [0, 1]


def _measure():
    results = {}
    for preset, n, overrides, model_name, epochs in DATASETS:
        for policy_name in NAMES:
            accs, times = [], []
            for seed in SEEDS:
                train, test = make_split(preset, n, seed, **overrides)
                model = build_model(model_name, train.dim, train.num_classes,
                                    rng=seed + 2)
                policy = POLICIES[policy_name](0.2, seed + 3)
                res = Trainer(model, train, test, policy,
                              TrainerConfig(epochs=epochs, batch_size=64)).run()
                accs.append(res.final_accuracy)
                times.append(res.total_time_s)
            results[(preset, policy_name)] = (
                float(np.mean(times)), float(np.mean(accs))
            )
    return results


def test_table4_5_end_to_end(once, benchmark):
    results = once(_measure)
    time_rows, acc_rows = [], []
    for preset, *_ in DATASETS:
        time_rows.append(
            (preset,)
            + tuple(f"{results[(preset, p)][0]:.1f}s" for p in NAMES)
        )
        acc_rows.append(
            (preset,)
            + tuple(f"{results[(preset, p)][1]:.3f}" for p in NAMES)
        )
    print_table("Table 4: total (simulated) training time",
                ["dataset"] + NAMES, time_rows)
    print_table("Table 5: end-to-end Top-1 accuracy",
                ["dataset"] + NAMES, acc_rows)

    speedups = []
    for preset, *_ in DATASETS:
        t = {p: results[(preset, p)][0] for p in NAMES}
        a = {p: results[(preset, p)][1] for p in NAMES}
        # Time shape: SpiderCache fastest (iCache's skipped-backprop compute
        # discount keeps it within a few percent), Baseline slowest.
        assert t["spidercache"] <= 1.03 * min(t.values()), preset
        assert t["spidercache"] < t["shade"], preset
        assert t["spidercache"] < t["coordl"], preset
        assert t["baseline"] == max(t.values()), preset
        assert t["shade"] < t["coordl"], preset
        speedups.append(t["baseline"] / t["spidercache"])
        # Accuracy shape: SpiderCache within noise of the best.
        best = max(a.values())
        assert a["spidercache"] >= best - 0.05, preset
        # Full iCache pays for random substitution + skipped backprop on
        # the harder (unsaturated) datasets — the paper's Table-5 deficit.
        if preset != "cifar10-like":
            assert a["icache"] == min(a.values()), preset
    print(f"\nSpiderCache speed-up over baseline: "
          f"max {max(speedups):.2f}x, avg {np.mean(speedups):.2f}x "
          f"(paper: up to 2.33x, avg 2.21x)")
    benchmark.extra_info["speedups"] = speedups
    assert max(speedups) > 1.4
