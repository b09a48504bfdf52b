"""Procedural image dataset tests."""

import numpy as np
import pytest

from repro.data import images
from repro.data.images import make_image_dataset


def test_shapes():
    ds = make_image_dataset(100, n_classes=5, image_size=12, rng=0)
    assert ds.X.shape == (100, 1, 12, 12)
    assert ds.y.shape == (100,)
    assert ds.templates.shape == (5, 1, 12, 12)
    assert ds.image_shape == (1, 12, 12)
    assert ds.num_classes == 5
    assert len(ds) == 100


def test_multichannel(monkeypatch):
    monkeypatch.setattr(images, "CHANNELS", 3)
    ds = make_image_dataset(20, n_classes=2, image_size=8, rng=1)
    assert ds.X.shape == (20, 3, 8, 8)


def test_all_classes_present():
    ds = make_image_dataset(100, n_classes=10, rng=2)
    assert len(np.unique(ds.y)) == 10


def test_samples_correlate_with_own_template(monkeypatch):
    """A sample should correlate more with its own class template than with
    the average foreign template."""
    monkeypatch.setattr(images, "MAX_SHIFT", 0)
    ds = make_image_dataset(60, n_classes=4, image_size=12, noise_std=0.2,
                            rng=3)
    own, other = [], []
    for i in range(len(ds)):
        x = ds.X[i].ravel()
        for c in range(4):
            t = ds.templates[c].ravel()
            corr = np.corrcoef(x, t)[0, 1]
            (own if c == ds.y[i] else other).append(corr)
    assert np.mean(own) > np.mean(other) + 0.3


def test_deterministic():
    a = make_image_dataset(30, rng=5)
    b = make_image_dataset(30, rng=5)
    np.testing.assert_array_equal(a.X, b.X)


def test_too_small_image():
    with pytest.raises(ValueError):
        make_image_dataset(10, image_size=2)


def test_cnn_learns_image_dataset():
    """End-to-end sanity: a small CNN beats chance on the images."""
    from repro.nn.models import build_cnn_model
    from repro.nn.optim import SGD

    ds = make_image_dataset(200, n_classes=4, image_size=8, noise_std=0.3, rng=7)
    m = build_cnn_model((1, 8, 8), 4, channels=(4,), embedding_dim=16, rng=0)
    opt = SGD(m.params(), lr=0.1, momentum=0.9)
    for _ in range(40):
        m.zero_grad()
        m.train_batch(ds.X, ds.y)
        opt.step()
    acc, _ = m.evaluate(ds.X, ds.y)
    assert acc > 0.6
