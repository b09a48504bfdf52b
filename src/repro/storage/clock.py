"""The run's one clock: simulated seconds with per-stage accounting.

The paper splits training time into Data Loading / Preprocessing /
Computation (Fig. 2) and later Stage1 / Stage2 / IS (§5). ``SimClock``
accumulates simulated seconds per named stage so experiments can report both
breakdowns (Fig. 3(a), Table 1) and end-to-end totals (Table 4).

The clock is shared by every component of a run and, like them, is
driven by one thread. Every charge is modelled, never measured — a
shard RPC over real worker processes charges the same modelled latency
as one over the simulated channel — so a run's clock repeats per seed.
(On the real transport, only *whether* a reply missed its wall-time
deadline depends on the host.)
Concurrent loader processes are modelled by the epoch loop, not here:
the ``data_load`` stage total is divided by ``io_workers`` when an epoch
closes (:func:`repro.train.metrics.data_load_seconds`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

__all__ = ["SimClock"]


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

    def state_dict(self) -> Dict[str, float]:
        """Serializable snapshot of per-stage totals (for checkpoints)."""
        return self.breakdown()

    def load_state_dict(self, state: Dict[str, float]) -> None:
        """Replace accumulated time with a :meth:`state_dict` snapshot."""
        self._stage_s.clear()
        for stage, secs in state.items():
            self._stage_s[str(stage)] = float(secs)
