"""Initializer tests."""

import numpy as np
import pytest

from repro.nn.init import he_init


def test_he_std():
    w = he_init((2000, 100), fan_in=100, rng=0)
    assert w.std() == pytest.approx(np.sqrt(2 / 100), rel=0.05)
    assert abs(w.mean()) < 0.01


def test_he_deterministic():
    np.testing.assert_array_equal(he_init((3, 3), 3, rng=1), he_init((3, 3), 3, rng=1))


def test_he_invalid_fan_in():
    with pytest.raises(ValueError):
        he_init((2, 2), 0)
