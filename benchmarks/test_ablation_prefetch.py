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

# ---------------------------------------------------------------------------
# A5b — Concurrent prefetching loader (worker-overlap ablation)

WORKERS = [0, 2, 4, 8]


def _measure_workers():
    rows = []
    metrics = {}
    for w in WORKERS:
        train, test = make_split("cifar10-like", 600, 0)
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(cache_fraction=0.2, rng=3)
        # io_workers=1 so the serial run charges the full fetch sum — the
        # overlap ablation then isolates the loader's window accounting.
        trainer = Trainer(model, train, test, policy,
                          TrainerConfig(epochs=6, batch_size=64,
                                        io_workers=1, prefetch_workers=w))
        res = trainer.run()
        load = float(sum(e.data_load_s for e in res.epochs))
        metrics[w] = dict(load=load,
                          acc=res.final_accuracy,
                          hit=res.mean_hit_ratio)
        rows.append((str(w), f"{load:.3f}", f"{res.final_accuracy:.3f}",
                     f"{res.mean_hit_ratio:.3f}"))
    return rows, metrics


def test_ablation_prefetch_workers(once, benchmark):
    rows, metrics = once(_measure_workers)
    print_table(
        "A5b: prefetching loader workers (io_workers=1)",
        ["workers", "data_load_s", "final acc", "mean hit"],
        rows,
    )
    benchmark.extra_info["rows"] = rows
    # Bit-identical training under every worker count: overlap changes
    # only the simulated load time, never the learning trajectory.
    for w in WORKERS[1:]:
        assert metrics[w]["acc"] == metrics[0]["acc"]
        assert metrics[w]["hit"] == metrics[0]["hit"]
    # Overlap wins: simulated data-load time strictly below the serial
    # sum for every concurrent width, and wider windows never lose.
    for w in [2, 4, 8]:
        assert metrics[w]["load"] < metrics[0]["load"]
    assert metrics[4]["load"] <= metrics[2]["load"]
    assert metrics[8]["load"] <= metrics[4]["load"]
