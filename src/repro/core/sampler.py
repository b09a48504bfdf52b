"""The importance-sampling epoch sampler.

``MultinomialSampler`` is the paper's biased draw ("using the biased
sampling method torch.multinomial from PyTorch", §4.1): each epoch draws
``n`` sample ids *with replacement*, weighted by importance — so important
samples repeat within an epoch (the Fig.-5 frequency skew that makes
importance-aware caching work). Random-shuffle policies draw their
permutation in :meth:`TrainingPolicy.epoch_order` directly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.rng import RngLike, resolve_rng

__all__ = ["MultinomialSampler"]


class MultinomialSampler:
    """Weighted with-replacement epoch sampler.

    ``weight_fn`` is called once per epoch and must return an unnormalized
    non-negative weight vector of length ``n_samples`` (e.g.
    :meth:`GlobalScoreTable.sampling_weights`). An epoch draws as many ids
    as the dataset has samples, matching one-pass epochs.
    """

    def __init__(
        self,
        n_samples: int,
        weight_fn: Callable[[], np.ndarray],
        rng: RngLike = None,
    ) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        self.n_samples = int(n_samples)
        self.weight_fn = weight_fn
        self._rng = resolve_rng(rng)

    def epoch_order(self, epoch: int) -> np.ndarray:
        """Draw ``n_samples`` ids with replacement, weighted."""
        w = np.asarray(self.weight_fn(), dtype=np.float64)
        if w.shape[0] != self.n_samples:
            raise ValueError("weight_fn returned wrong length")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = w.sum()
        if total <= 0:
            # Degenerate weights: fall back to uniform.
            p = np.full(self.n_samples, 1.0 / self.n_samples)
        else:
            p = w / total
        return self._rng.choice(self.n_samples, size=self.n_samples, replace=True, p=p)
