"""Loss-based importance sampling over an importance-only cache.

SHADE, gradient-norm IS and iCache are one policy that differs only in how
a batch's per-sample losses become scores — scores that are not comparable
across batches and epochs (Motivation 1), which is what their importance
caches then churn on. :class:`LossISPolicy` is that policy:

* ``epoch_order`` — multinomial draw over the global score table;
* ``fetch`` — importance-cache hit, else a remote read offered to the
  min-heap admission rule (Fig. 9 cases 2/4, as in SpiderCache);
* ``after_batch`` — score the batch, keep each repeated id's last
  occurrence, write the table and refresh resident priorities;
* ``state_dict`` — the table, the cache and the sampling RNG, so a
  preempted run resumes bit-for-bit.

Subclasses supply :meth:`LossISPolicy.batch_scores`; iCache also reshapes
the sampling weights and serves importance-cache misses its own way.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.base import CacheStats
from repro.core.importance_cache import ImportanceCache
from repro.core.sampler import MultinomialSampler
from repro.core.scores import GlobalScoreTable, last_occurrences
from repro.core.semantic_cache import FetchOutcome, FetchSource
from repro.train.policy_base import PolicyContext, TrainingPolicy
from repro.utils.rng import RngLike

__all__ = ["LossISPolicy"]


class LossISPolicy(TrainingPolicy):
    """Loss-derived IS + importance-score caching; subclasses score."""

    def __init__(self, cache_fraction: float = 0.2, rng: RngLike = None) -> None:
        super().__init__(rng=rng)
        if not 0.0 <= cache_fraction <= 1.0:
            raise ValueError("cache_fraction must be in [0, 1]")
        self.cache_fraction = float(cache_fraction)
        self.score_table: Optional[GlobalScoreTable] = None
        self.cache: Optional[ImportanceCache] = None
        self.sampler: Optional[MultinomialSampler] = None

    def batch_scores(self, losses: np.ndarray) -> np.ndarray:
        """Per-sample importance scores of one batch's losses."""
        raise NotImplementedError

    def _sampling_weights(self) -> np.ndarray:
        assert self.score_table is not None
        return self.score_table.sampling_weights()

    def setup(self, ctx: PolicyContext) -> None:
        super().setup(ctx)
        n = ctx.num_samples
        self.score_table = GlobalScoreTable(n)
        self.cache = ImportanceCache(int(round(self.cache_fraction * n)))
        self.sampler = MultinomialSampler(
            n, weight_fn=self._sampling_weights, rng=self._rng
        )

    def epoch_order(self, epoch: int) -> np.ndarray:
        assert self.sampler is not None
        return self.sampler.epoch_order(epoch)

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

    def after_batch(
        self,
        requested: np.ndarray,
        served: np.ndarray,
        losses: np.ndarray,
        embeddings: np.ndarray,
        epoch: int,
    ) -> None:
        assert self.score_table is not None and self.cache is not None
        served = np.asarray(served, dtype=np.int64)
        pos = last_occurrences(served)
        ids, scores = served[pos], self.batch_scores(losses)[pos]
        self.score_table.update(ids, scores)
        for index, score in zip(ids.tolist(), scores.tolist()):
            self.cache.update_score(index, score)

    def after_epoch(self, epoch: int, val_accuracy: float) -> None:
        assert self.score_table is not None
        self.score_table.snapshot_std()

    def state_dict(self) -> dict:
        """Score table, importance cache and sampling RNG."""
        assert self.score_table is not None and self.cache is not None
        state = super().state_dict()
        state.update(
            score_table=self.score_table.state_dict(),
            cache=self.cache.state_dict(),
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (call after ``setup``)."""
        assert self.score_table is not None and self.cache is not None
        super().load_state_dict(state)
        self.score_table.load_state_dict(state["score_table"])
        self.cache.load_state_dict(state["cache"])

    def stats(self) -> CacheStats:
        assert self.cache is not None
        return self.cache.stats

    @property
    def is_ms_per_batch(self) -> float:
        # Scoring from losses is a pass over the batch — negligible next
        # to the graph-based IS cost; charge a nominal 1 ms.
        return 1.0
