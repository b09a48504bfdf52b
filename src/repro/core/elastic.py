"""Elastic Cache Manager (paper §4.3, Eq. 5-8).

Three components observe training once per epoch and steer the split
between the Importance and Homophily caches:

* **Importance Monitor** — watches the slope of the std-dev of importance
  scores; once it turns negative (scores converging, fewer "important"
  samples) it latches the activation factor ``beta = 1`` (Eq. 5).
* **Accuracy Monitor** — Savitzky-Golay-smooths the accuracy series, takes
  the trailing mean growth rate ``Delta_t`` (Eq. 6, window m = 5), and maps
  it to the penalty ``u = Delta_t / (gamma + Delta_t)`` (Eq. 7): fast
  accuracy growth keeps ``u`` near 1 (adjust slowly); a plateau drives
  ``u`` to 0 (adjust fast).
* **Ratio Controller** — Eq. 8:
  ``imp_ratio(t) = r_start - beta (r_start - r_end) (t/T)^(1+u)``.

The paper recommends ``r_start = 0.9``, ``r_end = 0.8``; both are exposed so
users can trade accuracy (higher ratio) for hit rate (lower).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.savgol import savgol_smooth
from repro.analysis.trends import mean_growth_rate, slope
from repro.obs.observer import NULL_OBSERVER, Observer

__all__ = [
    "ImportanceMonitor",
    "AccuracyMonitor",
    "RatioController",
    "ElasticCacheManager",
]

#: Eq. 6's growth-rate window ``m``: the paper fixes it at 5 epochs.
GROWTH_WINDOW = 5
#: Eq. 7's penalty threshold ``gamma``.
GAMMA = 0.01
#: Epochs of score std whose slope Eq. 5's activation reads.
SLOPE_WINDOW = 5
#: Savitzky-Golay filter (window, polynomial order) over the accuracy series.
SAVGOL_WINDOW = 5
SAVGOL_POLYORDER = 2


class ImportanceMonitor:
    """Eq. 5: activation factor from the importance-score std trajectory.

    ``beta`` latches at 1 the first time the recent slope of the std series
    is negative (the Fig. 6(c) peak has passed) and stays 1 — the paper's
    annealing never reverses.
    """

    def __init__(self) -> None:
        self.std_history: List[float] = []
        self._activated = False
        self.activation_epoch: Optional[int] = None

    def observe(self, std: float) -> int:
        """Record one epoch's score std; returns the current beta."""
        if std < 0:
            raise ValueError("standard deviation cannot be negative")
        self.std_history.append(float(std))
        if not self._activated and len(self.std_history) >= SLOPE_WINDOW:
            recent = self.std_history[-SLOPE_WINDOW:]
            if slope(recent) < 0:
                self._activated = True
                self.activation_epoch = len(self.std_history) - 1
        return self.beta

    @property
    def beta(self) -> int:
        return 1 if self._activated else 0


class AccuracyMonitor:
    """Eq. 6-7: penalty factor from the smoothed accuracy growth rate."""

    def __init__(self) -> None:
        self.accuracy_history: List[float] = []

    def observe(self, accuracy: float) -> float:
        """Record one epoch's accuracy; returns the current penalty ``u``."""
        self.accuracy_history.append(float(accuracy))
        return self.penalty()

    def growth_rate(self) -> float:
        """Delta_t over the smoothed series; 0 before enough history."""
        if len(self.accuracy_history) < GROWTH_WINDOW + 1:
            return 0.0
        smoothed = savgol_smooth(
            np.asarray(self.accuracy_history),
            window=SAVGOL_WINDOW,
            polyorder=SAVGOL_POLYORDER,
        )
        return mean_growth_rate(smoothed, window=GROWTH_WINDOW)

    def penalty(self) -> float:
        """Eq. 7, clamped to [0, 1].

        Negative growth (accuracy regressing) maps to ``u = 0`` — there is
        no reason to slow the cache shift when accuracy is not improving.
        """
        delta = self.growth_rate()
        if delta <= 0:
            return 0.0
        return float(delta / (GAMMA + delta))


class RatioController:
    """Eq. 8: annealed importance-cache ratio."""

    def __init__(self, r_start: float = 0.9, r_end: float = 0.8, total_epochs: int = 100) -> None:
        if not 0.0 <= r_end <= r_start <= 1.0:
            raise ValueError("need 0 <= r_end <= r_start <= 1")
        if total_epochs <= 0:
            raise ValueError("total_epochs must be positive")
        self.r_start = float(r_start)
        self.r_end = float(r_end)
        self.total_epochs = int(total_epochs)

    def ratio(self, t: int, beta: int, u: float) -> float:
        """imp_ratio at epoch ``t`` (clamped to ``[r_end, r_start]``)."""
        if beta not in (0, 1):
            raise ValueError("beta must be 0 or 1")
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must be in [0, 1]")
        frac = min(max(t, 0), self.total_epochs) / self.total_epochs
        r = self.r_start - beta * (self.r_start - self.r_end) * frac ** (1.0 + u)
        return float(min(max(r, self.r_end), self.r_start))


@dataclass
class ElasticDecision:
    """One epoch's manager output (for logging/plots)."""

    epoch: int
    beta: int
    u: float
    imp_ratio: float


class ElasticCacheManager:
    """Combines the three components into a per-epoch controller.

    Call :meth:`step` once per epoch with the current score std and model
    accuracy; it returns the imp-ratio to apply. ``history`` keeps every
    decision for the Fig. 11 / Fig. 16 plots.
    """

    def __init__(
        self,
        total_epochs: int,
        r_start: float = 0.9,
        r_end: float = 0.8,
    ) -> None:
        self.importance_monitor = ImportanceMonitor()
        self.accuracy_monitor = AccuracyMonitor()
        self.controller = RatioController(r_start, r_end, total_epochs)
        self.history: List[ElasticDecision] = []
        # Annealing time starts when beta activates, not at epoch 0: Eq. 8's
        # t/T measures progress through the *adjustment* phase.
        self._t0: Optional[int] = None
        self._obs = NULL_OBSERVER

    def attach_observer(self, observer: Observer) -> None:
        """Publish each :class:`ElasticDecision` to ``observer``."""
        self._obs = observer

    def step(self, epoch: int, score_std: float, accuracy: float) -> float:
        """Observe one epoch and return the new imp-ratio.

        The ratio is clamped to be non-increasing: Eq. 8 with a *varying*
        ``u`` can momentarily rise again when accuracy growth resumes, but
        re-growing the Importance Cache would churn evictions for no
        benefit — the annealing is one-way, like the paper's Fig. 11 curves.
        """
        beta = self.importance_monitor.observe(score_std)
        u = self.accuracy_monitor.observe(accuracy)
        if beta == 1 and self._t0 is None:
            self._t0 = epoch
        t = epoch - self._t0 if self._t0 is not None else 0
        ratio = self.controller.ratio(t, beta, u)
        if self.history:
            ratio = min(ratio, self.history[-1].imp_ratio)
        self.history.append(ElasticDecision(epoch, beta, u, ratio))
        if self._obs.active:
            self._obs.on_elastic(epoch, beta, u, ratio)
        return ratio

    def coordinate(self, epoch: int, score_std: float, accuracy: float,
                   caches) -> float:
        """One global split decision applied to every cache tier.

        In the sharded service exactly one worker owns the manager: the
        ratio is computed once from the *global* score/accuracy signals
        and pushed to each cache (monolithic or
        :class:`~repro.dist.client.ShardedCacheClient`), so all shards
        re-split in lockstep instead of each worker annealing its own
        copy against local noise.
        """
        ratio = self.step(epoch, score_std, accuracy)
        for cache in caches:
            cache.set_imp_ratio(ratio)
        return ratio

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Exact snapshot of all three components plus decision history.

        Needed across preemptions: ``beta`` latches on the score-std
        *trajectory* and the annealing clock starts at activation, so a
        restart that dropped this state would re-anneal from scratch.
        """
        im = self.importance_monitor
        return {
            "std_history": list(im.std_history),
            "activated": im._activated,
            "activation_epoch": im.activation_epoch,
            "accuracy_history": list(self.accuracy_monitor.accuracy_history),
            "decisions": [
                [d.epoch, d.beta, d.u, d.imp_ratio] for d in self.history
            ],
            "t0": self._t0,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        im = self.importance_monitor
        im.std_history = [float(s) for s in state["std_history"]]
        im._activated = bool(state["activated"])
        im.activation_epoch = (
            None if state["activation_epoch"] is None
            else int(state["activation_epoch"])
        )
        self.accuracy_monitor.accuracy_history = [
            float(a) for a in state["accuracy_history"]
        ]
        self.history = [
            ElasticDecision(int(e), int(b), float(u), float(r))
            for e, b, u, r in state["decisions"]
        ]
        self._t0 = None if state["t0"] is None else int(state["t0"])
