"""iCache policies (Chen et al., HPCA '23).

iCache adopts the compute-bound loss-based IS of Jiang et al. 2019
("Accelerating deep learning by focusing on the biggest losers"): samples
whose loss is low get their *backprop skipped* (saving compute, costing some
accuracy), and raw losses double as sampling/caching scores.

Two cache variants match the paper's §6.3 split:

* :class:`ICacheImpPolicy` ("iCache-imp") — importance cache only, driven by
  the loss scores. Because raw losses are incomparable across epochs
  (Motivation 1), this hit ratio lands *below* SHADE's.
* :class:`ICacheFullPolicy` (full iCache) — adds the L-sample section with
  random replacement: samples below the H-threshold that miss the cache are
  served a *random cached L-sample instead* (a substitute hit). This pushes
  the hit ratio above SHADE's but "significantly degrades the model's final
  accuracy" (Fig. 6(b)) because the substitutes are arbitrary, not similar.

Both serve through the one :class:`~repro.core.semantic_cache.SemanticCache`
every policy shares: the importance layer, sized to the H-section in the
full variant, then the :class:`LSection` layer, which serves under its own
source (:attr:`~repro.cache.base.FetchSource.L_SECTION`) and takes every
miss the importance layer refuses.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.baselines.loss_is import LossISPolicy
from repro.cache.base import Cache, FetchSource
from repro.cache.random_replacement import RandomReplacementCache
from repro.core.importance_cache import ImportanceCache
from repro.utils.rng import RngLike

__all__ = ["ICacheImpPolicy", "ICacheFullPolicy", "LSection"]

#: Compute-bound IS still forward-passes (hence fetches) nearly every
#: sample — its savings come from skipping backprop, not I/O. The sampler
#: therefore stays mostly uniform, with only a mild loss bias:
#: p = UNIFORM_MIX * uniform + (1 - UNIFORM_MIX) * loss-weighted. This is
#: why iCache-imp's hit ratio lands below SHADE's (paper §6.3).
UNIFORM_MIX = 0.7
#: Share of the full variant's cache budget that holds H-samples.
H_FRACTION = 0.7


class ICacheImpPolicy(LossISPolicy):
    """Importance-cache-only iCache with compute-bound loss IS.

    ``skip_quantile`` is the fraction of lowest-loss samples per batch whose
    backprop is skipped (the compute-bound acceleration that costs accuracy).
    """

    name = "icache-imp"

    def __init__(
        self,
        cache_fraction: float = 0.2,
        skip_quantile: float = 0.3,
        rng: RngLike = None,
    ) -> None:
        super().__init__(cache_fraction, rng=rng)
        if not 0.0 <= skip_quantile < 1.0:
            raise ValueError("skip_quantile must be in [0, 1)")
        self.skip_quantile = float(skip_quantile)

    def _sampling_weights(self) -> np.ndarray:
        w = super()._sampling_weights()
        return UNIFORM_MIX / w.shape[0] + (1.0 - UNIFORM_MIX) * w

    def batch_scores(self, losses: np.ndarray) -> np.ndarray:
        # Raw losses as scores — the compute-bound IS choice the paper
        # criticizes: scales shift epoch to epoch as the model learns.
        return np.asarray(losses, dtype=np.float64)

    def backprop_mask(
        self, indices: np.ndarray, losses: np.ndarray
    ) -> Optional[np.ndarray]:
        """Skip backprop for the lowest-loss ``skip_quantile`` of the batch."""
        if self.skip_quantile == 0.0:
            return None
        losses = np.asarray(losses, dtype=np.float64)
        threshold = np.quantile(losses, self.skip_quantile)
        return (losses > threshold).astype(np.float64)


class LSection(RandomReplacementCache):
    """iCache's L-section as a cache layer.

    An exact hit serves the resident. Otherwise a request for an L-sample
    — its score at or below the H threshold, the importance layer's own
    admission bar (its current minimum) — is served a random resident with
    probability ``substitute_prob``. It keeps every miss offered to it.
    """

    name = "lsec"
    source = FetchSource.L_SECTION

    def __init__(
        self, capacity: int, rng: np.random.Generator,
        importance: ImportanceCache, substitute_prob: float,
    ) -> None:
        super().__init__(capacity, rng)
        self._importance = importance
        self.substitute_prob = substitute_prob

    def lookup(self, index: int, score: float = 0.0) -> Optional[Tuple[int, Any]]:
        if index in self._items:
            return super().lookup(index, score)
        floor = self._importance.min_score()
        if (
            self._items
            and score <= (floor if floor is not None else 0.0)
            and self._rng.random() < self.substitute_prob
        ):
            sub, payload = self.choice()
            if payload is not None:
                self.stats.substitute_hits += 1
                return sub, payload
        self.stats.misses += 1
        return None


class ICacheFullPolicy(ICacheImpPolicy):
    """Full iCache: H/L sample split with random L-replacement.

    :data:`H_FRACTION` of the cache budget holds H-samples (the importance
    layer); the rest is the :class:`LSection` behind it. An L-sample
    request that misses is served a random resident L-sample with
    probability ``substitute_prob``.
    """

    name = "icache"

    def __init__(
        self,
        cache_fraction: float = 0.2,
        skip_quantile: float = 0.3,
        substitute_prob: float = 0.3,
        rng: RngLike = None,
    ) -> None:
        super().__init__(cache_fraction, skip_quantile, rng=rng)
        if not 0.0 <= substitute_prob <= 1.0:
            raise ValueError("substitute_prob must be in [0, 1]")
        self.substitute_prob = float(substitute_prob)

    def _cache_layers(self, capacity: int) -> List[Cache]:
        """The budget splits into the H-section (the importance layer)
        and the L-section."""
        h_cap = int(round(capacity * H_FRACTION))
        (imp,) = super()._cache_layers(h_cap)
        return [
            imp,
            LSection(capacity - h_cap, self._rng, imp, self.substitute_prob),
        ]
