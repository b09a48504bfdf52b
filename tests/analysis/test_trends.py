"""Trend statistic tests."""

import pytest

from repro.analysis.trends import mean_growth_rate, slope


def test_slope_of_line():
    assert slope([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)
    assert slope([4.0, 3.0, 2.0]) == pytest.approx(-1.0)
    assert slope([5.0, 5.0, 5.0]) == pytest.approx(0.0)


def test_slope_needs_two_points():
    with pytest.raises(ValueError):
        slope([1.0])


def test_mean_growth_telescopes():
    """Eq. 6 reduces to (y[t] - y[t-m]) / m."""
    y = [0.0, 1.0, 3.0, 6.0, 10.0, 15.0]
    assert mean_growth_rate(y, window=5) == pytest.approx((15.0 - 0.0) / 5)
    assert mean_growth_rate(y, window=2) == pytest.approx((15.0 - 6.0) / 2)


def test_mean_growth_validation():
    with pytest.raises(ValueError):
        mean_growth_rate([1.0, 2.0], window=5)
    with pytest.raises(ValueError):
        mean_growth_rate([1.0, 2.0, 3.0], window=0)
