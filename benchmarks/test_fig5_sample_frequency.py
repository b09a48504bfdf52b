"""E3 — Fig. 5: per-sample access frequency, IS vs default sampling.

Paper: default sampling touches each item exactly once per epoch; under
importance sampling frequencies spread out (some samples drawn many times,
others rarely) and the skew evolves across epochs.
"""

import numpy as np
from conftest import make_split, print_table

from repro.core.policy import SpiderCachePolicy
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

EPOCH_MARKS = [1, 3, 6]


class _FrequencyRecorder(SpiderCachePolicy):
    """SpiderCache policy that records per-epoch access histograms."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.histograms = {}

    def epoch_order(self, epoch):
        order = super().epoch_order(epoch)
        n = self._require_ctx().num_samples
        self.histograms[epoch] = np.bincount(order, minlength=n)
        return order


def _measure():
    split = make_split(n_samples=1000, seed=0)
    train, test = split
    model = build_model("resnet18", train.dim, train.num_classes, rng=1)
    policy = _FrequencyRecorder(cache_fraction=0.0, rng=2)
    Trainer(model, train, test, policy,
            TrainerConfig(epochs=max(EPOCH_MARKS) + 1, batch_size=64)).run()

    rows = []
    # Default sampling: every count is exactly 1.
    rows.append(("default", "any", "1", "1", "0", "0.00"))
    for e in EPOCH_MARKS:
        h = policy.histograms[e]
        rows.append(
            (
                "importance",
                str(e),
                str(h.max()),
                f"{h.mean():.2f}",
                str(int((h == 0).sum())),
                f"{h.std():.2f}",
            )
        )
    return rows, policy


def test_fig5_sample_frequency(once, benchmark):
    rows, policy = once(_measure)
    print_table(
        "Fig 5: sample access frequency per epoch",
        ["sampler", "epoch", "max", "mean", "never-drawn", "std"],
        rows,
    )
    benchmark.extra_info["rows"] = rows
    # Shape: IS skews frequencies (max >> 1, some samples never drawn) and
    # the skew changes across epochs.
    for r in rows[1:]:
        assert int(r[2]) > 1
        assert int(r[4]) > 0
    stds = [float(r[5]) for r in rows[1:]]
    assert len(set(stds)) > 1  # importance evolves across epochs
