"""Gradient-norm importance sampling (Johnson & Guestrin, 2018).

The paper cites gradient-magnitude IS [21] alongside loss-based IS as the
computation-bound family its graph method replaces. For softmax
cross-entropy the per-sample logit-gradient norm is ``||p - y_onehot||_2``,
bounded below by ``1 - p_target = 1 - exp(-loss)`` — the standard cheap
proxy (Katharopoulos & Fleuret's "upper bound" trick evaluated from the
loss alone). Scores therefore live in [0, 1) and, like raw losses, shift
distribution as training progresses — globally incomparable, which is
exactly the Motivation-1 weakness.

Included as an additional comparator beyond the paper's four systems.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.loss_is import LossISPolicy

__all__ = ["GradNormISPolicy", "gradnorm_scores"]


def gradnorm_scores(losses: np.ndarray) -> np.ndarray:
    """Loss-derived gradient-norm proxy: ``1 - exp(-loss)`` in [0, 1)."""
    losses = np.asarray(losses, dtype=np.float64)
    if np.any(losses < 0):
        raise ValueError("losses must be non-negative")
    return 1.0 - np.exp(-losses)


class GradNormISPolicy(LossISPolicy):
    """Gradient-norm IS + importance-score caching."""

    name = "gradnorm"

    def batch_scores(self, losses: np.ndarray) -> np.ndarray:
        return gradnorm_scores(losses)
