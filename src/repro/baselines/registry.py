"""The one policy registry: ``name -> factory(cache_fraction, rng)``.

Keyed by the names the paper's figures use; the CLI, the benches and the
recovery tests all build their policies from it.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.baselines.baseline import CoorDLPolicy, LFUPolicy, LRUBaselinePolicy
from repro.baselines.gradnorm import GradNormISPolicy
from repro.baselines.icache import ICacheFullPolicy, ICacheImpPolicy
from repro.baselines.shade import ShadePolicy
from repro.core.policy import SpiderCachePolicy
from repro.train.policy_base import TrainingPolicy
from repro.utils.rng import RngLike

__all__ = ["POLICIES"]

POLICIES: Dict[str, Callable[[float, RngLike], TrainingPolicy]] = {
    "spidercache": lambda frac, rng: SpiderCachePolicy(cache_fraction=frac, rng=rng),
    "spidercache-imp": lambda frac, rng: SpiderCachePolicy(
        cache_fraction=frac, r_start=1.0, r_end=1.0, elastic=False, rng=rng
    ),
    "shade": lambda frac, rng: ShadePolicy(cache_fraction=frac, rng=rng),
    "gradnorm": lambda frac, rng: GradNormISPolicy(cache_fraction=frac, rng=rng),
    "icache": lambda frac, rng: ICacheFullPolicy(cache_fraction=frac, rng=rng),
    "icache-imp": lambda frac, rng: ICacheImpPolicy(cache_fraction=frac, rng=rng),
    "coordl": lambda frac, rng: CoorDLPolicy(cache_fraction=frac, rng=rng),
    "baseline": lambda frac, rng: LRUBaselinePolicy(cache_fraction=frac, rng=rng),
    "lfu": lambda frac, rng: LFUPolicy(cache_fraction=frac, rng=rng),
}
