"""Global importance-score table.

The paper's central claim (Motivation 1) is that cache management needs
importance scores comparable *globally* — across batches and epochs — which
loss-based IS cannot provide. This table is that global state: one score per
sample, updated whenever a sample is processed, with enough history to feed
the Elastic Cache Manager's Importance Monitor (the std-dev trajectory of
Fig. 6(c)).
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["GlobalScoreTable", "last_occurrences"]

#: Every sample's score before its first update.
INITIAL_SCORE = 1.0
#: Least multinomial weight a sample gets, so that no sample starves.
WEIGHT_FLOOR = 1e-6


def last_occurrences(ids: np.ndarray) -> np.ndarray:
    """Positions of each distinct id's last occurrence, in ascending id order.

    With-replacement sampling can repeat an id within a batch; a batch's
    score update keeps the last occurrence of each.
    """
    ids = np.asarray(ids)
    _, last_pos = np.unique(ids[::-1], return_index=True)
    return len(ids) - 1 - last_pos


class GlobalScoreTable:
    """Per-sample importance scores.

    Scores start at :data:`INITIAL_SCORE` (> 0 so unseen samples still get
    sampled; the paper's IS "does not update every sample's score in each
    epoch"). ``snapshot_std`` records the dispersion of the current scores —
    called once per epoch, this produces the Fig. 6(c) std trajectory.
    """

    def __init__(self, n_samples: int) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        self.n_samples = int(n_samples)
        self._scores = np.full(n_samples, INITIAL_SCORE)
        self._ever_updated = np.zeros(n_samples, dtype=bool)
        self.std_history: List[float] = []

    def __len__(self) -> int:
        return self.n_samples

    @property
    def scores(self) -> np.ndarray:
        """Read-only view of current scores."""
        view = self._scores.view()
        view.flags.writeable = False
        return view

    def get(self, index: int) -> float:
        """Current score of one sample."""
        return float(self._scores[index])

    def update(self, indices: np.ndarray, scores: np.ndarray) -> None:
        """Write new scores for the given samples.

        Scores must be finite and non-negative: a NaN (a diverged model's
        loss) would otherwise reach the sampling weights and the cache
        heap, and surface epochs later far from its cause.
        """
        indices = np.asarray(indices, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if indices.shape != scores.shape:
            raise ValueError("indices and scores must align")
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"importance score of sample {indices[i]} is not finite "
                f"({scores[i]})"
            )
        if np.any(scores < 0):
            raise ValueError("importance scores must be non-negative")
        self._scores[indices] = scores
        self._ever_updated[indices] = True

    def sampling_weights(self) -> np.ndarray:
        """Normalized multinomial weights (floored at :data:`WEIGHT_FLOOR`)."""
        w = np.maximum(self._scores, WEIGHT_FLOOR)
        return w / w.sum()

    def snapshot_std(self) -> float:
        """Record and return the current score standard deviation.

        Only scores that have been computed at least once enter the
        statistic; before any update it falls back to all scores (zero std).
        """
        if self._ever_updated.any():
            std = float(self._scores[self._ever_updated].std())
        else:
            std = float(self._scores.std())
        self.std_history.append(std)
        return std

    def state_dict(self) -> dict:
        """Exact snapshot of scores, coverage, and std history."""
        return {
            "scores": self._scores.copy(),
            "ever_updated": self._ever_updated.copy(),
            "std_history": list(self.std_history),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        scores = np.asarray(state["scores"], dtype=np.float64)
        if scores.shape[0] != self.n_samples:
            raise ValueError("score snapshot does not match table size")
        self._scores = scores.copy()
        self._ever_updated = np.asarray(state["ever_updated"], dtype=bool).copy()
        self.std_history = [float(s) for s in state["std_history"]]
