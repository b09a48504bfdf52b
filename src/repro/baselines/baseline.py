"""Classic-cache baselines: random sampling over LRU/LFU/MinIO.

The paper's end-to-end "Baseline" is exactly random sampling + LRU; Fig. 3(b)
additionally sweeps LFU. Random sampling visits every sample once per epoch
in fresh random order, which destroys the reuse locality these policies need
— the effect the whole paper is built on.

CoorDL (Mohan et al., 2020) is random sampling plus the MinIO static cache:
the cache fills during the first epoch and never changes afterwards, yielding
a hit ratio equal to the cache fraction in steady state — the best any policy
can do under pure random sampling, and the floor every IS-aware policy must
beat.
"""

from __future__ import annotations

from typing import List, Type

from repro.cache.base import Cache
from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache
from repro.train.policy_base import TrainingPolicy
from repro.utils.rng import RngLike

__all__ = ["ClassicCachePolicy", "LRUBaselinePolicy", "LFUPolicy", "CoorDLPolicy"]


class ClassicCachePolicy(TrainingPolicy):
    """Random sampling + a pluggable classic cache (demand-fill on miss),
    the one layer of the policy's cache."""

    def __init__(
        self,
        cache_cls: Type[Cache],
        cache_fraction: float = 0.2,
        rng: RngLike = None,
    ) -> None:
        super().__init__(rng=rng)
        if not 0.0 <= cache_fraction <= 1.0:
            raise ValueError("cache_fraction must be in [0, 1]")
        self.cache_cls = cache_cls
        self.cache_fraction = float(cache_fraction)

    @property
    def name(self) -> str:
        """Derived from the cache class; subclasses name themselves."""
        return f"{self.cache_cls.__name__.replace('Cache', '').lower()}-baseline"

    def _cache_layers(self, capacity: int) -> List[Cache]:
        return [self.cache_cls(capacity)]


class LRUBaselinePolicy(ClassicCachePolicy):
    """The paper's Baseline: LRU eviction + random sampling."""

    name = "baseline-lru"

    def __init__(self, cache_fraction: float = 0.2, rng: RngLike = None) -> None:
        super().__init__(LRUCache, cache_fraction, rng=rng)


class LFUPolicy(ClassicCachePolicy):
    """LFU eviction + random sampling (Fig. 3(b))."""

    name = "lfu"

    def __init__(self, cache_fraction: float = 0.2, rng: RngLike = None) -> None:
        super().__init__(LFUCache, cache_fraction, rng=rng)


class CoorDLPolicy(ClassicCachePolicy):
    """Random sampling + MinIO static cache (CoorDL)."""

    name = "coordl"

    def __init__(self, cache_fraction: float = 0.2, rng: RngLike = None) -> None:
        super().__init__(MinIOCache, cache_fraction, rng=rng)
