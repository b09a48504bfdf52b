"""Simulated wall clock with per-stage accounting.

The paper splits training time into Data Loading / Preprocessing /
Computation (Fig. 2) and later Stage1 / Stage2 / IS (§5). ``SimClock``
accumulates simulated seconds per named stage so experiments can report both
breakdowns (Fig. 3(a), Table 1) and end-to-end totals (Table 4).

The clock is shared by every component of a run and, like them, is
driven by one thread. Concurrent loader processes are modelled by the
epoch loop, not here: the ``data_load`` stage total is divided by
``io_workers`` when an epoch closes
(:func:`repro.train.metrics.data_load_seconds`).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict

__all__ = ["SimClock", "WallClock"]


class SimClock:
    """Accumulates simulated time across named stages."""

    def __init__(self) -> None:
        self._stage_s: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def advance(self, stage: str, seconds: float) -> None:
        """Charge ``seconds`` of simulated time to ``stage``."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._stage_s[stage] += seconds

    # ------------------------------------------------------------------
    def stage_seconds(self, stage: str) -> float:
        """Accumulated seconds for one stage (0 if never charged)."""
        return self._stage_s.get(stage, 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self._stage_s.values())

    def breakdown(self) -> Dict[str, float]:
        """Copy of per-stage totals."""
        return dict(self._stage_s)

    def fractions(self) -> Dict[str, float]:
        """Per-stage fraction of total time (empty dict if nothing elapsed)."""
        snap = self.breakdown()
        total = sum(snap.values())
        if total <= 0:
            return {}
        return {k: v / total for k, v in snap.items()}

    def reset(self) -> None:
        """Zero all stages."""
        self._stage_s.clear()

    def state_dict(self) -> Dict[str, float]:
        """Serializable snapshot of per-stage totals (for checkpoints)."""
        return self.breakdown()

    def load_state_dict(self, state: Dict[str, float]) -> None:
        """Replace accumulated time with a :meth:`state_dict` snapshot."""
        self._stage_s.clear()
        for stage, secs in state.items():
            self._stage_s[str(stage)] = float(secs)

    def merge(self, other: "SimClock") -> None:
        """Add another clock's accumulated time into this one."""
        snap = other.breakdown()
        for stage, secs in snap.items():
            self._stage_s[stage] += secs


class WallClock:
    """Real-time clock with the :class:`SimClock` read API (wall-clock mode).

    Components built against ``SimClock`` — breakers reading
    :attr:`total_seconds`, retry layers calling :meth:`advance` for
    backoff — run unchanged on real hardware when handed a ``WallClock``:

    * :attr:`total_seconds` is elapsed wall time since construction, so
      breaker cooldowns and outage windows are measured in real seconds;
    * :meth:`advance` actually **sleeps** — a retry backoff charge becomes
      a real delay — while still recording per-stage totals so
      :meth:`breakdown` stays meaningful;
    * :meth:`record` only records: a measured duration already happened
      in real time, sleeping again would double-pay it.

    There is no ``state_dict`` — wall time cannot be checkpointed or
    replayed; deterministic runs use :class:`SimClock`.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._stage_s: Dict[str, float] = defaultdict(float)

    @property
    def total_seconds(self) -> float:
        return time.perf_counter() - self._t0

    def advance(self, stage: str, seconds: float) -> None:
        """Really sleep ``seconds`` and record them against ``stage``."""
        if seconds > 0:
            time.sleep(seconds)
        self.record(stage, seconds)

    def record(self, stage: str, seconds: float) -> None:
        """Record (not sleep) ``seconds`` already spent against ``stage``."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._stage_s[stage] += seconds

    def stage_seconds(self, stage: str) -> float:
        """Seconds explicitly recorded against one stage (not elapsed wall)."""
        return self._stage_s.get(stage, 0.0)

    def breakdown(self) -> Dict[str, float]:
        """Copy of explicitly recorded per-stage totals."""
        return dict(self._stage_s)

    def reset(self) -> None:
        """Re-zero the epoch: elapsed time restarts from now."""
        self._t0 = time.perf_counter()
        self._stage_s.clear()
