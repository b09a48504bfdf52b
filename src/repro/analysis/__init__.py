"""Signal-analysis helpers for the Elastic Cache Manager's monitors."""

from repro.analysis.savgol import savgol_coefficients, savgol_smooth
from repro.analysis.trends import mean_growth_rate, slope

__all__ = [
    "savgol_smooth",
    "savgol_coefficients",
    "slope",
    "mean_growth_rate",
]
