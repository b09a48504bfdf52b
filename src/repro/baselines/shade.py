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

#: Rank score of a batch's lowest-loss sample (floored above zero so
#: low-rank samples keep a nonzero sampling probability).
RANK_FLOOR = 0.05


def loss_rank_scores(losses: np.ndarray) -> np.ndarray:
    """Within-batch rank scores in ``[RANK_FLOOR, 1]``.

    Highest loss -> 1.0, lowest -> :data:`RANK_FLOOR`. Ties share ranks by
    stable ordering.
    """
    losses = np.asarray(losses, dtype=np.float64).ravel()
    n = losses.shape[0]
    if n == 0:
        return np.empty(0)
    if n == 1:
        return np.ones(1)
    order = np.argsort(np.argsort(losses, kind="stable"), kind="stable")
    return RANK_FLOOR + (1.0 - RANK_FLOOR) * order / (n - 1)


class ShadePolicy(LossISPolicy):
    """Loss-rank IS + importance-only caching (SHADE)."""

    name = "shade"

    def batch_scores(self, losses: np.ndarray) -> np.ndarray:
        return loss_rank_scores(losses)
