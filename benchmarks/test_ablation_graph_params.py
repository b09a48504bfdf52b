"""A1 — Ablation: graph-construction sensitivity (the edge threshold alpha).

DESIGN.md calls out the edge threshold as the key graph knob: too tight a
radius gives an edgeless graph (uniform scores, no concentration); too
loose connects everything (scores saturate). Hit ratio should peak at a
moderate radius. The sweep sets ``alpha`` through the policy constructor at
the default lambda, so the edge radius is ``-ln(alpha)/lambda`` calibrated
distance units: ``alpha = exp(-lambda * m)`` puts it at ``m`` units, and the
default ``alpha = 0.1`` at 0.85.
"""

import math

from conftest import make_split, print_table

from repro.core.graph_is import DEFAULT_LAM
from repro.core.policy import SpiderCachePolicy
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

#: Radius multiple -> alpha; 0.85 is the default alpha itself.
ALPHAS = {m: math.exp(-DEFAULT_LAM * m) for m in (0.3, 0.6, 1.2, 2.0)}
ALPHAS[0.85] = 0.1


def _measure():
    train, test = make_split("cifar10-like", 1000, seed=0)
    rows = []
    hits = {}
    for m, alpha in sorted(ALPHAS.items()):
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(cache_fraction=0.2, alpha=alpha, rng=3)
        trainer = Trainer(model, train, test, policy,
                          TrainerConfig(epochs=10, batch_size=64))
        res = trainer.run()
        scores = policy.score_table.scores
        rows.append(
            (f"{alpha:.4f}",
             f"{-math.log(alpha) / DEFAULT_LAM:.2f}",
             f"{res.mean_hit_ratio:.3f}",
             f"{res.final_accuracy:.3f}",
             f"{float(scores.std()):.3f}")
        )
        hits[m] = res.mean_hit_ratio
    return rows, hits


def test_ablation_edge_threshold(once, benchmark):
    rows, hits = once(_measure)
    print_table(
        "A1: edge-threshold (alpha) sensitivity at the default lambda",
        ["alpha", "radius multiple", "mean hit", "final acc", "score std"],
        rows,
    )
    benchmark.extra_info["rows"] = rows
    # An extreme-tight radius produces a near-edgeless graph: hit ratio
    # falls back toward the uninformed level.
    assert hits[0.3] < hits[0.85]
    # The default sits at (or within noise of) the sweep's plateau.
    assert hits[0.85] > max(hits.values()) - 0.08
