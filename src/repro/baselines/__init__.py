"""Published comparator policies: SHADE, iCache, CoorDL, LRU baseline,
gradient-norm IS — and ``POLICIES``, the registry of every policy."""

from repro.baselines.baseline import (
    ClassicCachePolicy,
    CoorDLPolicy,
    LFUPolicy,
    LRUBaselinePolicy,
)
from repro.baselines.gradnorm import GradNormISPolicy
from repro.baselines.icache import ICacheFullPolicy, ICacheImpPolicy
from repro.baselines.loss_is import LossISPolicy
from repro.baselines.registry import POLICIES
from repro.baselines.shade import ShadePolicy

__all__ = [
    "POLICIES",
    "ClassicCachePolicy",
    "LRUBaselinePolicy",
    "LFUPolicy",
    "CoorDLPolicy",
    "LossISPolicy",
    "ShadePolicy",
    "ICacheImpPolicy",
    "ICacheFullPolicy",
    "GradNormISPolicy",
]
