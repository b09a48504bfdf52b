"""Sampler tests."""

import numpy as np
import pytest

from repro.core.sampler import MultinomialSampler


def test_multinomial_respects_weights():
    """High-weight samples appear far more often (the Fig. 5 skew)."""
    n = 2000
    w = np.ones(n)
    w[:200] = 50.0
    s = MultinomialSampler(n, weight_fn=lambda: w, rng=0)
    order = s.epoch_order(0)
    counts = np.bincount(order, minlength=n)
    assert counts[:200].mean() > 20 * counts[200:].mean()


def test_multinomial_epoch_size_default():
    s = MultinomialSampler(37, weight_fn=lambda: np.ones(37), rng=0)
    assert len(s.epoch_order(0)) == 37


def test_multinomial_with_replacement():
    w = np.zeros(10)
    w[3] = 1.0
    s = MultinomialSampler(10, weight_fn=lambda: w, rng=0)
    np.testing.assert_array_equal(s.epoch_order(0), [3] * 10)


def test_multinomial_degenerate_weights_uniform():
    s = MultinomialSampler(1000, weight_fn=lambda: np.zeros(1000), rng=0)
    order = s.epoch_order(0)
    # Uniform with replacement reaches ~1 - 1/e of the samples.
    assert 550 < len(np.unique(order)) < 710


def test_multinomial_negative_weights_rejected():
    s = MultinomialSampler(3, weight_fn=lambda: np.array([1.0, -1.0, 1.0]), rng=0)
    with pytest.raises(ValueError):
        s.epoch_order(0)


def test_multinomial_wrong_length_rejected():
    s = MultinomialSampler(3, weight_fn=lambda: np.ones(4), rng=0)
    with pytest.raises(ValueError):
        s.epoch_order(0)


def test_multinomial_weights_reread_each_epoch():
    state = {"w": np.ones(10)}
    s = MultinomialSampler(10, weight_fn=lambda: state["w"], rng=0)
    s.epoch_order(0)
    state["w"] = np.zeros(10)
    state["w"][0] = 1.0
    order = s.epoch_order(1)
    assert np.all(order == 0)
