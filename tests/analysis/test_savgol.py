"""Savitzky-Golay filter tests, cross-checked against scipy."""

import numpy as np
import pytest
from scipy.signal import savgol_filter

from repro.analysis.savgol import savgol_coefficients, savgol_smooth


def test_coefficients_match_scipy():
    from scipy.signal import savgol_coeffs

    ours = savgol_coefficients(5, 2)
    theirs = savgol_coeffs(5, 2)[::-1]  # scipy returns convolution order
    np.testing.assert_allclose(ours, theirs, atol=1e-12)


def test_coefficients_sum_to_one():
    """Smoothing kernels preserve constants."""
    for w, p in [(5, 2), (7, 3), (9, 2)]:
        assert savgol_coefficients(w, p).sum() == pytest.approx(1.0)


def test_invalid_params():
    with pytest.raises(ValueError):
        savgol_coefficients(4, 2)  # even window
    with pytest.raises(ValueError):
        savgol_coefficients(5, 5)  # polyorder >= window


def test_smooth_matches_scipy_interior():
    rng = np.random.default_rng(0)
    y = np.sin(np.linspace(0, 4, 50)) + rng.normal(0, 0.1, 50)
    ours = savgol_smooth(y, window=7, polyorder=2)
    theirs = savgol_filter(y, 7, 2, mode="interp")
    np.testing.assert_allclose(ours, theirs, atol=1e-10)


def test_polynomial_reproduced_exactly():
    """A degree-2 polynomial passes through a polyorder-2 filter unchanged."""
    x = np.arange(30, dtype=float)
    y = 2.0 + 0.5 * x - 0.01 * x**2
    out = savgol_smooth(y, window=7, polyorder=2)
    np.testing.assert_allclose(out, y, atol=1e-9)


def test_noise_reduction():
    rng = np.random.default_rng(1)
    clean = np.sin(np.linspace(0, 3, 100))
    noisy = clean + rng.normal(0, 0.2, 100)
    smooth = savgol_smooth(noisy, window=9, polyorder=2)
    assert np.abs(smooth - clean).mean() < np.abs(noisy - clean).mean()


def test_short_series_fallback():
    y = np.array([1.0, 2.0, 3.0])
    out = savgol_smooth(y, window=5, polyorder=2)
    assert out.shape == (3,)
    np.testing.assert_allclose(out, y, atol=1e-9)  # exact quadratic fit


def test_empty_series():
    out = savgol_smooth(np.array([]))
    assert out.shape == (0,)


def test_output_length_preserved():
    for n in [5, 6, 20, 101]:
        y = np.random.default_rng(n).random(n)
        assert savgol_smooth(y, window=5, polyorder=2).shape == (n,)
