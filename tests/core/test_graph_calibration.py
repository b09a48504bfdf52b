"""Distance-scale calibration internals of the graph scorer."""

import numpy as np
import pytest

from repro.core.graph_is import GraphImportanceScorer


def _clustered(seed=0, n=32, d=8, sep=5.0):
    rng = np.random.default_rng(seed)
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    emb = np.concatenate([
        rng.normal(0, 0.2, (n // 2, d)),
        rng.normal(sep, 0.2, (n // 2, d)),
    ])
    return labels, emb


def test_fixed_radius_before_first_batch():
    labels, _ = _clustered()
    s = GraphImportanceScorer(8, labels, lam=2.0, alpha=0.2)
    # No EMA yet: the scale is 1.0, so the radius is -ln(alpha)/lam.
    assert s.radius == pytest.approx(-np.log(0.2) / 2.0)


def test_ema_updates_with_decay():
    labels, emb = _clustered()
    s = GraphImportanceScorer(8, labels)
    s.score_batch(np.arange(32), emb)
    first = s._dist_ema
    # Second batch at 10x the scale: the EMA moves a tenth of the way.
    s.score_batch(np.arange(32), emb * 10)
    assert s._dist_ema == pytest.approx(0.9 * first + 0.1 * 10 * first)


def test_radius_scale_proportional():
    """The calibrated radius is proportional to -ln(alpha)/lam."""
    labels, emb = _clustered()
    a = GraphImportanceScorer(8, labels, lam=2.0, alpha=0.1)
    b = GraphImportanceScorer(8, labels, lam=1.0, alpha=0.1)
    c = GraphImportanceScorer(8, labels, lam=2.0, alpha=0.01)
    for s in (a, b, c):
        s.score_batch(np.arange(32), emb)
    assert b.radius == pytest.approx(2 * a.radius)
    assert c.radius == pytest.approx(b.radius)  # -ln(0.01) = 2 * -ln(0.1)


def test_single_class_batch_uses_same_class_median():
    """An all-same-class batch still calibrates (all pairs are same-class)."""
    rng = np.random.default_rng(1)
    labels = np.zeros(16, dtype=int)
    emb = rng.normal(0, 1.0, (16, 8))
    s = GraphImportanceScorer(8, labels)
    s.score_batch(np.arange(16), emb)
    assert s._dist_ema is not None
    assert s._dist_ema > 0


def test_tiny_batch_no_crash():
    labels = np.zeros(4, dtype=int)
    s = GraphImportanceScorer(8, labels)
    out = s.score_batch(np.array([0]), np.zeros((1, 8)))
    assert len(out) == 1  # single sample: no pairs, EMA untouched
    assert s._dist_ema is None


def test_zero_same_part1_ordering():
    """Higher caps rank fully-isolated samples even higher."""
    from repro.core.graph_is import importance_score

    low = importance_score([0], [0], 500, zero_same_part1=1.5)[0]
    high = importance_score([0], [0], 500, zero_same_part1=3.0)[0]
    assert high > low
