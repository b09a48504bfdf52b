"""Elastic Cache Manager tests (Eq. 5-8)."""

import numpy as np
import pytest

from repro.core import elastic
from repro.core.elastic import (
    AccuracyMonitor,
    ElasticCacheManager,
    ImportanceMonitor,
    RatioController,
)


# ----------------------------------------------------------------------
# ImportanceMonitor (Eq. 5)
# ----------------------------------------------------------------------
def test_beta_zero_while_rising(monkeypatch):
    monkeypatch.setattr(elastic, "SLOPE_WINDOW", 3)
    m = ImportanceMonitor()
    for std in [0.1, 0.2, 0.3, 0.4]:
        assert m.observe(std) == 0


def test_beta_latches_on_decline(monkeypatch):
    monkeypatch.setattr(elastic, "SLOPE_WINDOW", 3)
    m = ImportanceMonitor()
    for std in [0.1, 0.3, 0.5]:
        m.observe(std)
    assert m.observe(0.4) == 0 or True  # slope may still be positive
    m.observe(0.3)
    m.observe(0.2)
    assert m.beta == 1
    assert m.activation_epoch is not None
    # Latched: later increases don't reset it.
    m.observe(0.9)
    m.observe(1.5)
    assert m.beta == 1


def test_beta_needs_window():
    assert elastic.SLOPE_WINDOW == 5
    m = ImportanceMonitor()
    for std in [0.5, 0.4, 0.3, 0.2]:  # only 4 points
        assert m.observe(std) == 0


def test_negative_std_rejected():
    with pytest.raises(ValueError):
        ImportanceMonitor().observe(-0.1)


# ----------------------------------------------------------------------
# AccuracyMonitor (Eq. 6-7)
# ----------------------------------------------------------------------
def test_penalty_zero_before_history():
    assert elastic.GROWTH_WINDOW == 5  # Eq. 6's m, as the paper fixes it
    m = AccuracyMonitor()
    for a in [0.1, 0.2, 0.3]:
        assert m.observe(a) == 0.0


def test_penalty_near_one_when_growing_fast(monkeypatch):
    monkeypatch.setattr(elastic, "GAMMA", 0.001)
    m = AccuracyMonitor()
    for a in np.linspace(0.1, 0.9, 10):
        u = m.observe(a)
    assert u > 0.9


def test_penalty_near_zero_on_plateau():
    m = AccuracyMonitor()
    for a in [0.5, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]:
        u = m.observe(a)
    assert u < 0.1


def test_penalty_zero_on_regression():
    m = AccuracyMonitor()
    for a in np.linspace(0.9, 0.1, 10):
        u = m.observe(a)
    assert u == 0.0


def test_penalty_bounded(monkeypatch):
    monkeypatch.setattr(elastic, "GROWTH_WINDOW", 3)
    monkeypatch.setattr(elastic, "GAMMA", 0.001)
    m = AccuracyMonitor()
    rng = np.random.default_rng(0)
    for a in rng.random(30):
        u = m.observe(a)
        assert 0.0 <= u <= 1.0


def test_growth_rate_telescoping(monkeypatch):
    monkeypatch.setattr(elastic, "SAVGOL_WINDOW", 1)
    monkeypatch.setattr(elastic, "SAVGOL_POLYORDER", 0)
    m = AccuracyMonitor()
    # With no smoothing (window 1) the growth rate is (a_t - a_{t-m}) / m.
    for a in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]:
        m.observe(a)
    assert m.growth_rate() == pytest.approx(0.1)


def test_savgol_valid_config_survives_long_history(monkeypatch):
    """The filter never fails later in the run."""
    monkeypatch.setattr(elastic, "GROWTH_WINDOW", 3)
    m = AccuracyMonitor()
    for i in range(20):
        m.observe(0.1 + 0.02 * i)  # must not raise at any epoch
    assert m.growth_rate() > 0.0


# ----------------------------------------------------------------------
# RatioController (Eq. 8)
# ----------------------------------------------------------------------
def test_ratio_inactive_stays_at_start():
    c = RatioController(0.9, 0.8, 100)
    for t in [0, 50, 100]:
        assert c.ratio(t, beta=0, u=0.5) == 0.9


def test_ratio_endpoints():
    c = RatioController(0.9, 0.8, 100)
    assert c.ratio(0, 1, 0.5) == pytest.approx(0.9)
    assert c.ratio(100, 1, 0.5) == pytest.approx(0.8)


def test_ratio_monotone_decreasing_in_t():
    c = RatioController(0.9, 0.5, 100)
    rs = [c.ratio(t, 1, 0.3) for t in range(0, 101, 10)]
    assert all(a >= b for a, b in zip(rs, rs[1:]))


def test_high_u_slows_adjustment():
    """Fig. 11: u -> 1 keeps the ratio higher mid-training than u -> 0."""
    c = RatioController(0.9, 0.8, 100)
    assert c.ratio(50, 1, 1.0) > c.ratio(50, 1, 0.0)


def test_ratio_clamped():
    c = RatioController(0.9, 0.8, 100)
    assert c.ratio(500, 1, 0.0) == 0.8  # past T: clamped at r_end
    assert c.ratio(-5, 1, 0.0) == 0.9


def test_invalid_controller():
    with pytest.raises(ValueError):
        RatioController(0.8, 0.9, 100)  # r_end > r_start
    with pytest.raises(ValueError):
        RatioController(0.9, 0.8, 0)
    c = RatioController(0.9, 0.8, 100)
    with pytest.raises(ValueError):
        c.ratio(10, beta=2, u=0.5)
    with pytest.raises(ValueError):
        c.ratio(10, beta=1, u=1.5)


# ----------------------------------------------------------------------
# ElasticCacheManager end-to-end
# ----------------------------------------------------------------------
def test_manager_full_trajectory():
    """Rise-then-fall std activates annealing; ratio reaches r_end."""
    mgr = ElasticCacheManager(total_epochs=40, r_start=0.9, r_end=0.8)
    stds = np.concatenate([np.linspace(0.1, 0.5, 10), np.linspace(0.5, 0.1, 30)])
    accs = np.concatenate([np.linspace(0.2, 0.8, 20), np.full(20, 0.8)])
    ratios = [mgr.step(e, stds[e], accs[e]) for e in range(40)]
    assert ratios[0] == 0.9
    # Activation happened somewhere after the std peak.
    assert mgr.importance_monitor.beta == 1
    assert ratios[-1] < 0.9
    assert all(r >= 0.8 for r in ratios)
    assert mgr.history[-1].imp_ratio == ratios[-1]


def test_manager_never_activates_on_rising_std():
    mgr = ElasticCacheManager(total_epochs=20)
    for e in range(20):
        r = mgr.step(e, 0.1 + 0.01 * e, 0.5)
        assert r == 0.9
    assert mgr.importance_monitor.beta == 0


def test_manager_history_recorded():
    mgr = ElasticCacheManager(total_epochs=5)
    for e in range(5):
        mgr.step(e, 0.1, 0.5)
    assert len(mgr.history) == 5
    assert mgr.history[2].epoch == 2


def test_manager_annealing_time_starts_at_activation(monkeypatch):
    """Eq. 8's t/T counts from activation, not epoch 0: two managers whose
    std peaks at different epochs should track the same post-activation
    trajectory."""
    monkeypatch.setattr(elastic, "SLOPE_WINDOW", 3)

    def run(peak):
        mgr = ElasticCacheManager(total_epochs=30, r_start=0.9, r_end=0.8)
        stds = np.concatenate([
            np.linspace(0.1, 0.5, peak), np.linspace(0.5, 0.1, 30 - peak)
        ])
        return [mgr.step(e, stds[e], 0.9) for e in range(30)], mgr

    r1, m1 = run(5)
    r2, m2 = run(15)
    a1 = m1.importance_monitor.activation_epoch
    a2 = m2.importance_monitor.activation_epoch
    assert a1 < a2
    # Same offset from activation -> same ratio.
    assert r1[a1 + 3] == pytest.approx(r2[a2 + 3], abs=1e-6)
