"""Loss-based importance sampling over an importance-only cache.

SHADE, gradient-norm IS and iCache are one policy that differs only in how
a batch's per-sample losses become scores — scores that are not comparable
across batches and epochs (Motivation 1), which is what their importance
caches then churn on. :class:`LossISPolicy` is that policy: the shared
:class:`~repro.core.policy.ISPolicy` skeleton (multinomial ``epoch_order``
over the global score table, the per-batch score update, the checkpoint)
over a plain :class:`~repro.core.importance_cache.ImportanceCache`, whose
``fetch`` is an importance-cache hit, else a remote read offered to the
min-heap admission rule (Fig. 9 cases 2/4, as in SpiderCache).

Subclasses supply :meth:`LossISPolicy.batch_scores`; iCache also reshapes
the sampling weights and serves importance-cache misses its own way.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.importance_cache import ImportanceCache
from repro.core.policy import ISPolicy
from repro.core.semantic_cache import FetchOutcome, FetchSource

__all__ = ["LossISPolicy"]


class LossISPolicy(ISPolicy):
    """Loss-derived IS + importance-score caching; subclasses score."""

    def batch_scores(self, losses: np.ndarray) -> np.ndarray:
        """Per-sample importance scores of one batch's losses."""
        raise NotImplementedError

    def _build_cache(self, capacity: int) -> ImportanceCache:
        return ImportanceCache(capacity)

    def _score_batch(
        self, served: np.ndarray, keep: np.ndarray, losses: np.ndarray,
        embeddings: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Scores rank or transform the whole batch's losses, repeats
        # included; only then is each id's last occurrence kept.
        return served[keep], self.batch_scores(losses)[keep]

    def fetch(self, index: int) -> FetchOutcome:
        assert self.cache is not None
        payload = self.cache.get(index)
        if payload is not None:
            return FetchOutcome(index, index, payload, FetchSource.IMPORTANCE)
        return self._fetch_miss(index)

    def _fetch_miss(self, index: int) -> FetchOutcome:
        """Serve an importance-cache miss: read remote, offer for admission."""
        assert self.cache is not None and self.score_table is not None
        payload = self._require_ctx().store.get(index)
        self.cache.admit(index, payload, self.score_table.get(index))
        return FetchOutcome(index, index, payload, FetchSource.REMOTE)

    @property
    def is_ms_per_batch(self) -> float:
        # Scoring from losses is a pass over the batch — negligible next
        # to the graph-based IS cost; charge a nominal 1 ms.
        return 1.0
