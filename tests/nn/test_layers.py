"""Layer tests, including numerical gradient checks for every layer."""

import numpy as np
import pytest

from repro.nn import layers
from repro.nn.layers import (
    BatchNorm1d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_input_grad(layer, x, rtol=1e-5, atol=1e-7):
    """Compare backward() input gradient to numerical differentiation of
    a fixed scalar projection of the output."""
    rng = np.random.default_rng(0)
    out = layer.forward(x, training=True)
    proj = rng.normal(size=out.shape)
    analytic = layer.backward(proj)

    def f():
        return float((layer.forward(x, training=True) * proj).sum())

    # Re-prime the forward cache for the analytic pass consistency.
    layer.forward(x, training=True)
    num = numerical_grad(f, x)
    np.testing.assert_allclose(analytic, num, rtol=rtol, atol=atol)


def check_param_grads(layer, x, rtol=1e-5, atol=1e-7):
    rng = np.random.default_rng(1)
    out = layer.forward(x, training=True)
    proj = rng.normal(size=out.shape)
    layer.zero_grad()
    layer.backward(proj)
    for p, g in layer.params():
        def f(p=p):
            return float((layer.forward(x, training=True) * proj).sum())

        num = numerical_grad(f, p)
        layer.forward(x, training=True)  # restore cache
        np.testing.assert_allclose(g, num, rtol=rtol, atol=atol)


# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------
def test_linear_forward_shape():
    lin = Linear(4, 3, rng=0)
    out = lin.forward(np.zeros((5, 4)))
    assert out.shape == (5, 3)


def test_linear_wrong_shape():
    lin = Linear(4, 3, rng=0)
    with pytest.raises(ValueError):
        lin.forward(np.zeros((5, 6)))


def test_linear_invalid_sizes():
    with pytest.raises(ValueError):
        Linear(0, 3)


def test_linear_input_grad():
    lin = Linear(4, 3, rng=0)
    x = np.random.default_rng(2).normal(size=(6, 4))
    check_input_grad(lin, x)


def test_linear_param_grads():
    lin = Linear(3, 2, rng=0)
    x = np.random.default_rng(3).normal(size=(4, 3))
    check_param_grads(lin, x)


def test_linear_backward_before_forward():
    lin = Linear(2, 2, rng=0)
    with pytest.raises(RuntimeError):
        lin.backward(np.zeros((1, 2)))


def test_linear_eval_forward_does_not_cache():
    lin = Linear(2, 2, rng=0)
    lin.forward(np.zeros((1, 2)), training=False)
    with pytest.raises(RuntimeError):
        lin.backward(np.zeros((1, 2)))


# ----------------------------------------------------------------------
# ReLU
# ----------------------------------------------------------------------
def test_relu_forward():
    r = ReLU()
    out = r.forward(np.array([[-1.0, 2.0, 0.0]]))
    np.testing.assert_array_equal(out, [[0.0, 2.0, 0.0]])


def test_relu_grad():
    r = ReLU()
    x = np.random.default_rng(4).normal(size=(5, 7)) + 0.1  # avoid kink
    check_input_grad(r, x)


# ----------------------------------------------------------------------
# Conv2d
# ----------------------------------------------------------------------
def test_conv_output_shape():
    conv = Conv2d(2, 5, kernel_size=3, stride=1, padding=1, rng=0)
    out = conv.forward(np.zeros((3, 2, 8, 8)))
    assert out.shape == (3, 5, 8, 8)


def test_conv_stride_shape():
    conv = Conv2d(1, 4, kernel_size=3, stride=2, padding=1, rng=0)
    out = conv.forward(np.zeros((2, 1, 8, 8)))
    assert out.shape == (2, 4, 4, 4)


def test_conv_wrong_channels():
    conv = Conv2d(2, 3, rng=0)
    with pytest.raises(ValueError):
        conv.forward(np.zeros((1, 3, 4, 4)))


def test_conv_input_grad():
    conv = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=0)
    x = np.random.default_rng(5).normal(size=(2, 2, 5, 5))
    check_input_grad(conv, x, rtol=1e-4, atol=1e-6)


def test_conv_param_grads():
    conv = Conv2d(1, 2, kernel_size=3, stride=1, padding=0, rng=0)
    x = np.random.default_rng(6).normal(size=(2, 1, 5, 5))
    check_param_grads(conv, x, rtol=1e-4, atol=1e-6)


def test_conv_matches_manual_valid():
    """3x3 valid conv on a known input matches hand computation."""
    conv = Conv2d(1, 1, kernel_size=3, stride=1, padding=0, rng=0)
    conv.W[:] = np.arange(9.0)[:, None]
    conv.b[:] = 0.0
    x = np.arange(25.0).reshape(1, 1, 5, 5)
    out = conv.forward(x)
    patch = x[0, 0, :3, :3].ravel()
    assert out[0, 0, 0, 0] == pytest.approx(patch @ np.arange(9.0))


# ----------------------------------------------------------------------
# MaxPool2d
# ----------------------------------------------------------------------
def test_maxpool_forward():
    mp = MaxPool2d(2)
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = mp.forward(x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_grad():
    mp = MaxPool2d(2)
    # Distinct values avoid ties at the argmax (nondifferentiable points).
    x = np.random.default_rng(7).permutation(64).astype(float).reshape(1, 1, 8, 8)
    check_input_grad(mp, x, rtol=1e-4, atol=1e-7)


def test_maxpool_grad_routes_to_argmax():
    mp = MaxPool2d(2)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    mp.forward(x)
    dx = mp.backward(np.array([[[[1.0]]]]))
    np.testing.assert_array_equal(dx, [[[[0, 0], [0, 1.0]]]])


# ----------------------------------------------------------------------
# BatchNorm1d
# ----------------------------------------------------------------------
def test_batchnorm_normalizes():
    bn = BatchNorm1d(4)
    x = np.random.default_rng(8).normal(3.0, 2.0, size=(64, 4))
    out = bn.forward(x, training=True)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)


def test_batchnorm_eval_uses_running_stats(monkeypatch):
    monkeypatch.setattr(layers, "BN_MOMENTUM", 0.0)  # running stats = last batch
    bn = BatchNorm1d(2)
    x = np.random.default_rng(9).normal(5.0, 3.0, size=(128, 2))
    bn.forward(x, training=True)
    out = bn.forward(x, training=False)
    assert abs(out.mean()) < 0.2


def test_batchnorm_input_grad():
    bn = BatchNorm1d(3)
    x = np.random.default_rng(10).normal(size=(6, 3))
    check_input_grad(bn, x, rtol=1e-4, atol=1e-6)


def test_batchnorm_param_grads():
    bn = BatchNorm1d(3)
    x = np.random.default_rng(11).normal(size=(5, 3))
    check_param_grads(bn, x, rtol=1e-4, atol=1e-6)


# ----------------------------------------------------------------------
# Flatten / Sequential
# ----------------------------------------------------------------------
def test_flatten_roundtrip():
    f = Flatten()
    x = np.random.default_rng(12).normal(size=(3, 2, 4, 4))
    out = f.forward(x)
    assert out.shape == (3, 32)
    back = f.backward(out)
    assert back.shape == x.shape


def test_sequential_composition_grad():
    seq = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 3, rng=1))
    x = np.random.default_rng(13).normal(size=(5, 4)) + 0.05
    check_input_grad(seq, x, rtol=1e-4, atol=1e-6)


def test_sequential_params_aggregated():
    seq = Sequential(Linear(2, 3, rng=0), ReLU(), Linear(3, 1, rng=1))
    assert len(seq.params()) == 4  # two Linear layers x (W, b)


def test_sequential_state_dict_roundtrip():
    seq1 = Sequential(Linear(3, 3, rng=0), BatchNorm1d(3))
    seq2 = Sequential(Linear(3, 3, rng=99), BatchNorm1d(3))
    seq2.load_state_dict(seq1.state_dict())
    x = np.random.default_rng(14).normal(size=(4, 3))
    np.testing.assert_allclose(
        seq1.forward(x, training=False), seq2.forward(x, training=False)
    )


def test_sequential_append_and_iter():
    seq = Sequential()
    seq.append(ReLU())
    assert len(seq) == 1
    assert all(isinstance(l, ReLU) for l in seq)
