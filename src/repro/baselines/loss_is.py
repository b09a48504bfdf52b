"""Loss-based importance sampling over the importance layer of the Fig. 9
cache.

SHADE, gradient-norm IS and iCache are one policy that differs only in how
a batch's per-sample losses become scores — scores that are not comparable
across batches and epochs (Motivation 1), which is what their importance
caches then churn on. :class:`LossISPolicy` is that policy: the shared
:class:`~repro.core.policy.ISPolicy` skeleton (multinomial ``epoch_order``
over the global score table, the Fig. 9 ``fetch`` through a
:class:`~repro.core.semantic_cache.SemanticCache`, the per-batch score
update, the checkpoint) over the skeleton's default cache: the importance
layer alone, so a fetch is an importance-cache hit, else a remote read
offered to the min-heap admission rule (Fig. 9 cases 1/2/4, as in
SpiderCache).

Subclasses supply :meth:`LossISPolicy.batch_scores`; iCache also reshapes
the sampling weights and stacks its L-section behind the importance
layer.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.policy import ISPolicy

__all__ = ["LossISPolicy"]


class LossISPolicy(ISPolicy):
    """Loss-derived IS + importance-score caching; subclasses score."""

    def batch_scores(self, losses: np.ndarray) -> np.ndarray:
        """Per-sample importance scores of one batch's losses."""
        raise NotImplementedError

    def _score_batch(
        self, served: np.ndarray, keep: np.ndarray, losses: np.ndarray,
        embeddings: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Scores rank or transform the whole batch's losses, repeats
        # included; only then is each id's last occurrence kept.
        return served[keep], self.batch_scores(losses)[keep]

    @property
    def is_ms_per_batch(self) -> float:
        # Scoring from losses is a pass over the batch — negligible next
        # to the graph-based IS cost; charge a nominal 1 ms.
        return 1.0
