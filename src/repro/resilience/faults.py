"""Correlated storage-fault models.

Real remote tiers fail in *correlated* ways, not by independent per-fetch
coin flips. This module models the two the spot-VM literature cares
about, both driven by the run's own
:class:`~repro.storage.clock.SimClock` so fault timing is deterministic and
reproducible:

* :class:`OutageWindow` — fail-stop: every fetch inside the window raises
  :class:`~repro.resilience.errors.StorageOutageError` (NFS server down,
  S3 region incident);
* :class:`BrownoutWindow` — latency spike: fetches succeed but cost a
  multiple of their normal simulated latency (congestion, degraded NIC).

:class:`FaultPlan` composes any number of windows, and
:class:`FaultInjectingStore` enforces the plan in front of any store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.resilience.errors import StorageOutageError
from repro.storage.wrappers import StoreWrapper

__all__ = ["OutageWindow", "BrownoutWindow", "FaultPlan", "FaultInjectingStore"]


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


class FaultInjectingStore(StoreWrapper):
    """Enforces a :class:`FaultPlan` in front of any store.

    The plan is evaluated against the store's own simulated clock, so a
    given training configuration always hits the same faults at the same
    points — runs stay reproducible, which the recovery tests rely on.
    """

    STAGE = "data_load"

    def __init__(self, inner, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan
        self.outage_failures = 0
        self.brownout_fetches = 0
        self.brownout_extra_s = 0.0

    def get(self, index: int) -> np.ndarray:
        now = self.clock.total_seconds
        if self.plan.outage_active(now):
            self.outage_failures += 1
            raise StorageOutageError(
                f"storage outage at t={now:.3f}s fetching {index}"
            )
        mult = self.plan.latency_multiplier(now)
        if mult == 1.0:
            return self.inner.get(index)
        before = self.clock.stage_seconds(self.STAGE)
        payload = self.inner.get(index)
        base = self.clock.stage_seconds(self.STAGE) - before
        extra = (mult - 1.0) * base
        if extra > 0:
            self.clock.advance(self.STAGE, extra)
            self.brownout_extra_s += extra
        self.brownout_fetches += 1
        return payload
