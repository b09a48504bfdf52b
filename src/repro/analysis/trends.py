"""Trend statistics: slopes and growth rates."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["slope", "mean_growth_rate"]


def slope(y: Sequence[float]) -> float:
    """Least-squares slope of a series against its index."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] < 2:
        raise ValueError("need at least two points for a slope")
    x = np.arange(y.shape[0], dtype=np.float64)
    x -= x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def mean_growth_rate(y: Sequence[float], window: int = 5) -> float:
    """Paper Eq. 6: mean first difference over the trailing ``window``.

    ``(1/m) * sum(y[t-m+i+1] - y[t-m+i])`` telescopes to
    ``(y[t] - y[t-m]) / m``; computed that way for clarity and stability.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if window < 1:
        raise ValueError("window must be >= 1")
    if y.shape[0] < window + 1:
        raise ValueError(f"need at least {window + 1} points")
    return float((y[-1] - y[-1 - window]) / window)
