"""SHADE policy (Khan et al., FAST '23).

Loss-based importance sampling + importance-score caching. SHADE "ranks
samples within each mini-batch using categorical cross-entropy, assigning a
rank to each" (paper §7): a sample's score is its *loss rank within its own
mini-batch*, normalized to [0, 1]. That is exactly the weakness SpiderCache
targets — rank-within-batch scores are comparable inside one batch but not
across batches or epochs (Motivation 1), so the importance cache churns on
noisy rankings.

Cache: importance-only (min-heap admission like SpiderCache's Importance
Cache, but driven by the rank scores). Sampling: multinomial over the
global table of latest rank scores.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.loss_is import LossISPolicy

__all__ = ["ShadePolicy", "loss_rank_scores"]


def loss_rank_scores(losses: np.ndarray, eps: float = 0.05) -> np.ndarray:
    """Within-batch rank scores in ``[eps, 1]``.

    Highest loss -> 1.0, lowest -> ``eps`` (floored so low-rank samples keep
    nonzero sampling probability). Ties share ranks by stable ordering.
    """
    losses = np.asarray(losses, dtype=np.float64).ravel()
    n = losses.shape[0]
    if n == 0:
        return np.empty(0)
    if n == 1:
        return np.ones(1)
    order = np.argsort(np.argsort(losses, kind="stable"), kind="stable")
    return eps + (1.0 - eps) * order / (n - 1)


class ShadePolicy(LossISPolicy):
    """Loss-rank IS + importance-only caching (SHADE)."""

    name = "shade"

    def batch_scores(self, losses: np.ndarray) -> np.ndarray:
        return loss_rank_scores(losses)
