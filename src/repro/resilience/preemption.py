"""Deterministic preemption schedules (spot-VM terminations).

The paper motivates SpiderCache with training on "low-cost GPU Spot VMs
... prone to termination". This module injects those terminations
reproducibly: a :class:`PreemptionSchedule` fires at exact ``(epoch,
batch)`` slots, raising :class:`PreemptionError` from the trainer's
per-batch hook. Each trigger fires exactly once — after the resilient
trainer restores from a checkpoint and replays, the same slot passes
through without re-firing, which is what lets a run with a finite
schedule terminate.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

__all__ = ["PreemptionError", "PreemptionSchedule"]


class PreemptionError(RuntimeError):
    """The (simulated) spot VM was terminated mid-training; only a
    checkpoint restart recovers."""

    def __init__(self, epoch: int, batch: int, at_s: float) -> None:
        super().__init__(
            f"preempted at epoch {epoch}, batch {batch} (t={at_s:.3f}s)"
        )
        self.epoch = int(epoch)
        self.batch = int(batch)
        self.at_s = float(at_s)


class PreemptionSchedule:
    """Kill points for a training run, keyed to batch slots.

    Parameters
    ----------
    at:
        ``(epoch, batch)`` pairs; the run is killed *after* that batch
        slot finishes (mid-epoch, so replay is observable).
    """

    def __init__(self, at: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        self._points: List[Tuple[int, int]] = sorted(
            {(int(e), int(b)) for e, b in (at or [])}
        )
        self._fired_points: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def check(self, epoch: int, batch: int, now_s: float) -> None:
        """Raise :class:`PreemptionError` if a pending trigger has hit."""
        key = (int(epoch), int(batch))
        if key in self._points and key not in self._fired_points:
            self._fired_points.add(key)
            raise PreemptionError(epoch, batch, now_s)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self._points)

    @property
    def fired(self) -> int:
        return len(self._fired_points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PreemptionSchedule(points={self._points}, "
            f"fired={self.fired}/{self.total})"
        )
