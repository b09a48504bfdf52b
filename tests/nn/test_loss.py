"""Softmax cross-entropy tests."""

import numpy as np
import pytest

from repro.nn.loss import SoftmaxCrossEntropy, softmax


def test_softmax_rows_sum_to_one():
    z = np.random.default_rng(0).normal(size=(5, 7))
    p = softmax(z)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)


def test_softmax_stability_large_logits():
    p = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p[0, :2], 0.5, atol=1e-9)


def test_loss_perfect_prediction_near_zero():
    ce = SoftmaxCrossEntropy()
    logits = np.array([[100.0, 0.0, 0.0]])
    loss = ce.forward(logits, np.array([0]))
    assert loss[0] == pytest.approx(0.0, abs=1e-9)


def test_loss_uniform_is_log_k():
    ce = SoftmaxCrossEntropy()
    logits = np.zeros((3, 10))
    loss = ce.forward(logits, np.array([0, 5, 9]))
    np.testing.assert_allclose(loss, np.log(10), atol=1e-12)


def test_per_sample_losses_shape():
    ce = SoftmaxCrossEntropy()
    loss = ce.forward(np.zeros((8, 4)), np.zeros(8, dtype=int))
    assert loss.shape == (8,)


def test_backward_matches_numerical():
    ce = SoftmaxCrossEntropy()
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 5))
    targets = np.array([0, 1, 2, 3])
    ce.forward(logits, targets)
    analytic = ce.backward()
    eps = 1e-6
    num = np.zeros_like(logits)
    for i in range(4):
        for j in range(5):
            lp, lm = logits.copy(), logits.copy()
            lp[i, j] += eps
            lm[i, j] -= eps
            fp = SoftmaxCrossEntropy().forward(lp, targets).mean()
            fm = SoftmaxCrossEntropy().forward(lm, targets).mean()
            num[i, j] = (fp - fm) / (2 * eps)
    np.testing.assert_allclose(analytic, num, atol=1e-7)


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        SoftmaxCrossEntropy().backward()


def test_batch_size_mismatch():
    with pytest.raises(ValueError):
        SoftmaxCrossEntropy().forward(np.zeros((3, 2)), np.zeros(4, dtype=int))


def test_label_out_of_range():
    with pytest.raises(ValueError):
        SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.array([-1, 0]))


def test_accuracy():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]])
    acc = SoftmaxCrossEntropy.accuracy(logits, np.array([0, 1, 1]))
    assert acc == pytest.approx(2 / 3)


def test_gradient_rows_sum_to_zero():
    """Softmax-CE gradient rows sum to zero (probability simplex)."""
    ce = SoftmaxCrossEntropy()
    logits = np.random.default_rng(2).normal(size=(6, 4))
    ce.forward(logits, np.array([0, 1, 2, 3, 0, 1]))
    g = ce.backward()
    np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)
