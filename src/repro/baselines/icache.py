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

Both serve through the Fig. 9 cache every IS policy shares, sized to the
H-section in the full variant; the L-section sits in front of its misses.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.loss_is import LossISPolicy
from repro.cache.base import CacheStats
from repro.cache.random_replacement import RandomReplacementCache
from repro.core.semantic_cache import FetchOutcome, FetchSource, SemanticCache
from repro.utils.rng import RngLike

__all__ = ["ICacheImpPolicy", "ICacheFullPolicy"]

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


class ICacheFullPolicy(ICacheImpPolicy):
    """Full iCache: H/L sample split with random L-replacement.

    :data:`H_FRACTION` of the cache budget holds H-samples (the Fig. 9
    cache's importance layer); the rest is the L-section, a random-replacement
    cache. An L-sample request that misses is served a random resident
    L-sample with probability ``substitute_prob``.
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
        self.l_section: Optional[RandomReplacementCache] = None

    def _build_cache(self, capacity: int) -> SemanticCache:
        """The budget splits into the H-section, which the Fig. 9 cache
        holds, and the L-section."""
        h_cap = int(round(capacity * H_FRACTION))
        self.l_section = RandomReplacementCache(capacity - h_cap, rng=self._rng)
        return super()._build_cache(h_cap)

    def _h_threshold(self) -> float:
        """Score above which a sample counts as an H-sample: the importance
        layer's own admission bar (its current minimum)."""
        assert self.cache is not None
        m = self.cache.importance.min_score()
        return m if m is not None else 0.0

    def fetch(self, index: int) -> FetchOutcome:
        """An H-section miss tries the L-section: an exact hit, else a
        random L-resident for a sample at or below the H threshold (with
        ``substitute_prob``). Only then the Fig. 9 cache serves; a sample
        its importance layer refuses enters the L-section."""
        assert self.cache is not None and self.score_table is not None
        imp, l_section = self.cache.importance, self.l_section
        assert l_section is not None
        if index not in imp:
            if index in l_section:
                return self._served(
                    index, index, l_section.get(index), FetchSource.HOMOPHILY
                )
            if (
                len(l_section)
                and self.score_table.get(index) <= self._h_threshold()
                and self._rng.random() < self.substitute_prob
            ):
                sub, payload = l_section.choice()
                l_section.stats.substitute_hits += 1
                return self._served(index, sub, payload, FetchSource.HOMOPHILY)
        outcome = super().fetch(index)
        if index not in imp:
            l_section.put(index, outcome.payload)
        return outcome

    def attach_observer(self, observer) -> None:
        """The base cascade, and register :meth:`counters`."""
        super().attach_observer(observer)
        observer.register(self)

    def counters(self) -> Dict[str, int]:
        """L-section serves under the metrics names (the observer adds
        them to the cache's own)."""
        assert self.l_section is not None
        stats = self.l_section.stats
        served = stats.hits + stats.substitute_hits
        return {"cache.fetches": served, "cache.fetch.homophily": served}

    def state_dict(self) -> dict:
        """The base snapshot plus the L-section."""
        assert self.l_section is not None
        state = super().state_dict()
        state["l_section"] = self.l_section.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (call after ``setup``)."""
        assert self.l_section is not None
        super().load_state_dict(state)
        self.l_section.load_state_dict(state["l_section"])

    def stats(self) -> CacheStats:
        """The Fig. 9 cache's counts plus the L-section's serves."""
        assert self.l_section is not None
        agg = super().stats()
        agg.merge(self.l_section.stats)
        return agg
