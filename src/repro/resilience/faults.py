"""Correlated storage-fault models.

Real remote tiers fail in *correlated* ways, not by independent per-fetch
coin flips. This module models the two the spot-VM literature cares
about, both driven by the run's own
:class:`~repro.storage.clock.SimClock` so fault timing is deterministic and
reproducible:

* :class:`OutageWindow` — fail-stop: every fetch inside the window finds
  the tier unreachable (NFS server down, S3 region incident);
* :class:`BrownoutWindow` — latency spike: fetches succeed but cost a
  multiple of their normal simulated latency (congestion, degraded NIC).

:class:`FaultPlan` composes any number of windows. The remote store
enforces the plan assigned to its ``fault_plan``
(:meth:`~repro.storage.backends.RemoteStore.get`), and the shard tier's
simulated transport the plans in its ``fault_plans``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["OutageWindow", "BrownoutWindow", "FaultPlan"]


@dataclass(frozen=True)
class OutageWindow:
    """Fail-stop interval ``[start_s, end_s)`` of simulated time."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.end_s < self.start_s:
            raise ValueError("need 0 <= start_s <= end_s")

    def active(self, t: float) -> bool:
        """Is simulated time ``t`` inside the window?"""
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class BrownoutWindow:
    """Latency-spike interval: fetches cost ``latency_multiplier`` x normal."""

    start_s: float
    end_s: float
    latency_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.end_s < self.start_s:
            raise ValueError("need 0 <= start_s <= end_s")
        if self.latency_multiplier < 1.0:
            raise ValueError("latency_multiplier must be >= 1")

    def active(self, t: float) -> bool:
        """Is simulated time ``t`` inside the window?"""
        return self.start_s <= t < self.end_s


@dataclass
class FaultPlan:
    """A deterministic schedule of storage-fault windows."""

    outages: List[OutageWindow] = field(default_factory=list)
    brownouts: List[BrownoutWindow] = field(default_factory=list)

    def outage_active(self, t: float) -> bool:
        """Is any fail-stop window active at simulated time ``t``?"""
        return any(w.active(t) for w in self.outages)

    def latency_multiplier(self, t: float) -> float:
        """Product of all active brownout multipliers (1.0 when clear)."""
        mult = 1.0
        for w in self.brownouts:
            if w.active(t):
                mult *= w.latency_multiplier
        return mult
