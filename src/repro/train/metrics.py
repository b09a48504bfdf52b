"""Training-run records: per-epoch metrics and run summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["EpochMetrics", "TrainResult", "data_load_seconds"]

#: Concurrent loader processes sharing one clock's remote fetch time.
IO_WORKERS = 4
#: Simulated cost of serving one sample from the in-memory cache.
HIT_LATENCY_S = 20e-6


def data_load_seconds(
    remote_s: float, hit_serves: int, io_workers: int, hit_latency_s: float
) -> float:
    """One loader's Fig.-2 data-load time: remote fetch time shared by
    ``io_workers`` concurrent loader processes, plus ``hit_latency_s`` per
    sample served from memory.

    The one formula behind ``EpochMetrics.data_load_s`` (per clock, in the
    epoch loop, with :data:`IO_WORKERS` and :data:`HIT_LATENCY_S`) and the
    trace report's per-epoch aggregate (with the values ``run_start``
    recorded).
    """
    return remote_s / io_workers + hit_serves * hit_latency_s


@dataclass
class EpochMetrics:
    """One epoch's observations (the unit most figures plot)."""

    epoch: int
    train_loss: float
    val_accuracy: float
    hit_ratio: float
    exact_hit_ratio: float
    substitute_ratio: float
    data_load_s: float
    compute_s: float
    is_visible_s: float
    epoch_time_s: float
    imp_ratio: Optional[float] = None
    score_std: Optional[float] = None
    # No stage charges preprocessing; the field keeps the record format.
    preprocess_s: float = 0.0
    comm_s: float = 0.0  # gradient all-reduce (zero for one replica)


@dataclass
class TrainResult:
    """Full run record returned by :meth:`Trainer.run`."""

    policy_name: str
    model_name: str
    dataset_name: str
    epochs: List[EpochMetrics] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def final_accuracy(self) -> float:
        if not self.epochs:
            raise ValueError("empty run")
        return self.epochs[-1].val_accuracy

    @property
    def best_accuracy(self) -> float:
        return max(e.val_accuracy for e in self.epochs)

    @property
    def total_time_s(self) -> float:
        return sum(e.epoch_time_s for e in self.epochs)

    @property
    def mean_hit_ratio(self) -> float:
        """Average per-epoch hit ratio (the Fig. 14 metric)."""
        if not self.epochs:
            return 0.0
        return float(np.mean([e.hit_ratio for e in self.epochs]))

    def series(self, attr: str) -> np.ndarray:
        """Extract one per-epoch attribute as an array (for plotting)."""
        return np.asarray([getattr(e, attr) for e in self.epochs], dtype=np.float64)

    def stage_totals(self) -> Dict[str, float]:
        """Summed per-stage simulated time across the run."""
        return {
            "data_load_s": float(sum(e.data_load_s for e in self.epochs)),
            "compute_s": float(sum(e.compute_s for e in self.epochs)),
            "is_visible_s": float(sum(e.is_visible_s for e in self.epochs)),
            "preprocess_s": float(sum(e.preprocess_s for e in self.epochs)),
            "comm_s": float(sum(e.comm_s for e in self.epochs)),
        }

    def summary(self) -> Dict[str, float]:
        """Flat summary dict for benchmark tables."""
        return {
            "final_accuracy": self.final_accuracy,
            "best_accuracy": self.best_accuracy,
            "total_time_s": self.total_time_s,
            "mean_hit_ratio": self.mean_hit_ratio,
            **self.stage_totals(),
        }
