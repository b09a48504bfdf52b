"""A5 — Ablation: importance-driven prefetching.

Paper §4.2: "Eviction and prefetching are driven by sample importance
scores." Prefetching refills the Importance Cache with the current
top-scored samples at each epoch start. It costs real fetches but converts
later demand misses into hits — a win whenever the prefetched samples are
sampled more than once before eviction.
"""

import numpy as np
from conftest import make_split, print_table

from repro.core.policy import SpiderCachePolicy
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

FRACTIONS = [0.0, 0.25, 0.5, 1.0]
EPOCHS = 10


def _measure():
    rows = []
    metrics = {}
    for pf in FRACTIONS:
        hits, early, fetches = [], [], []
        for seed in [0, 1]:
            train, test = make_split("cifar10-like", 1000, seed)
            model = build_model("resnet18", train.dim, train.num_classes,
                                rng=seed + 2)
            policy = SpiderCachePolicy(cache_fraction=0.2,
                                       prefetch_fraction=pf, rng=seed + 3)
            trainer = Trainer(model, train, test, policy,
                              TrainerConfig(epochs=EPOCHS, batch_size=64))
            res = trainer.run()
            hits.append(res.mean_hit_ratio)
            # The prefetch win is concentrated in the warm-up epochs, before
            # demand-fill reaches the same steady state.
            early.append(float(np.mean(res.series("hit_ratio")[1:4])))
            fetches.append(trainer.store.fetch_count)
        metrics[pf] = dict(hit=float(np.mean(hits)),
                           early=float(np.mean(early)),
                           fetches=float(np.mean(fetches)))
        rows.append((f"{pf:.0%}", f"{metrics[pf]['hit']:.3f}",
                     f"{metrics[pf]['early']:.3f}",
                     f"{metrics[pf]['fetches']:.0f}"))
    return rows, metrics


def test_ablation_prefetch(once, benchmark):
    rows, metrics = once(_measure)
    print_table(
        "A5: importance prefetch fraction (20% cache)",
        ["prefetch", "mean hit", "early-epoch hit", "total remote fetches"],
        rows,
    )
    benchmark.extra_info["rows"] = rows
    # Prefetching raises the warm-up hit ratio; steady state converges to
    # the same cache content, so the mean barely moves.
    assert metrics[0.5]["early"] > metrics[0.0]["early"]
    assert abs(metrics[1.0]["hit"] - metrics[0.0]["hit"]) < 0.05
    # But prefetches are real fetches: total I/O volume grows with the
    # fraction, so aggressive prefetching is not free.
    assert metrics[1.0]["fetches"] > metrics[0.0]["fetches"]
