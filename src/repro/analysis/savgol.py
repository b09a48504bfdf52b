"""Savitzky-Golay smoothing filter (Savitzky & Golay, 1964).

The Accuracy Monitor (paper Eq. 6) smooths the noisy per-epoch accuracy
series with this filter before differencing. Implemented from first
principles — coefficients come from the least-squares polynomial-fit
projection ``A (A^T A)^{-1} A^T`` evaluated at the window center — and
cross-checked against ``scipy.signal.savgol_filter`` in the test suite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["savgol_coefficients", "savgol_smooth"]


def savgol_coefficients(window: int, polyorder: int) -> np.ndarray:
    """Convolution coefficients for a centered Savitzky-Golay smoother.

    ``window`` must be odd and > ``polyorder``.
    """
    if window % 2 == 0 or window < 1:
        raise ValueError("window must be a positive odd integer")
    if polyorder >= window:
        raise ValueError("polyorder must be less than window")
    half = window // 2
    # Vandermonde of offsets -half..half.
    x = np.arange(-half, half + 1, dtype=np.float64)
    A = np.vander(x, polyorder + 1, increasing=True)  # (window, polyorder+1)
    # Least-squares fit evaluated at 0: row 0 of the pseudo-inverse.
    return np.linalg.pinv(A)[0]


def savgol_smooth(y: np.ndarray, window: int = 5, polyorder: int = 2) -> np.ndarray:
    """Apply a Savitzky-Golay filter along a 1-D series.

    Edges use polynomial fits over the first/last window (same strategy as
    scipy's ``mode='interp'``), so output length equals input length. Series
    shorter than ``window`` are fit with a single polynomial.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.shape[0]
    if n == 0:
        return y.copy()
    if n < window:
        # Degenerate: single global polynomial fit of reduced order.
        order = min(polyorder, n - 1)
        x = np.arange(n, dtype=np.float64)
        coeffs = np.polynomial.polynomial.polyfit(x, y, order)
        return np.polynomial.polynomial.polyval(x, coeffs)

    kernel = savgol_coefficients(window, polyorder)
    half = window // 2
    # Interior: correlation with the center-evaluated kernel (correlate does
    # NOT flip its second argument, so kernel[k] multiplies y[n+k] — the
    # offset ordering the coefficients were derived in).
    out = np.empty(n)
    interior = np.correlate(y, kernel, mode="valid")  # length n-window+1
    out[half : n - half] = interior

    # Edges: fit one polynomial to each terminal window and evaluate it.
    x_win = np.arange(window, dtype=np.float64)
    for sl, offset in ((slice(0, window), 0), (slice(n - window, n), n - window)):
        coeffs = np.polynomial.polynomial.polyfit(x_win, y[sl], polyorder)
        if offset == 0:
            out[:half] = np.polynomial.polynomial.polyval(x_win[:half], coeffs)
        else:
            out[n - half :] = np.polynomial.polynomial.polyval(
                x_win[window - half :], coeffs
            )
    return out
