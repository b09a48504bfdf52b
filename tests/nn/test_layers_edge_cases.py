"""Edge-case layer tests beyond the main gradient checks."""

import numpy as np

from repro.nn import layers
from repro.nn.layers import BatchNorm1d, Conv2d, Sequential


def test_conv_stride2_gradient():
    from tests.nn.test_layers import check_input_grad

    conv = Conv2d(1, 2, kernel_size=3, stride=2, padding=1, rng=0)
    x = np.random.default_rng(0).normal(size=(2, 1, 7, 7))
    check_input_grad(conv, x, rtol=1e-4, atol=1e-6)


def test_conv_1x1_kernel():
    conv = Conv2d(3, 2, kernel_size=1, stride=1, padding=0, rng=0)
    x = np.random.default_rng(1).normal(size=(2, 3, 4, 4))
    out = conv.forward(x)
    assert out.shape == (2, 2, 4, 4)
    # A 1x1 conv is a per-pixel linear map.
    manual = np.einsum("nchw,co->nohw", x, conv.W.reshape(3, 2)) + \
        conv.b[None, :, None, None]
    np.testing.assert_allclose(out, manual, atol=1e-12)


def test_batchnorm_eval_stable_under_repeats(monkeypatch):
    monkeypatch.setattr(layers, "BN_MOMENTUM", 0.5)
    bn = BatchNorm1d(3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        bn.forward(rng.normal(2.0, 1.5, (64, 3)), training=True)
    x = rng.normal(2.0, 1.5, (16, 3))
    a = bn.forward(x, training=False)
    b = bn.forward(x, training=False)
    np.testing.assert_array_equal(a, b)  # eval passes don't mutate state


def test_batchnorm_single_sample_batch():
    bn = BatchNorm1d(4)
    out = bn.forward(np.ones((1, 4)), training=True)
    assert np.isfinite(out).all()  # var=0 guarded by eps


def test_empty_sequential_identity():
    seq = Sequential()
    x = np.random.default_rng(5).normal(size=(3, 2))
    np.testing.assert_array_equal(seq.forward(x), x)
    np.testing.assert_array_equal(seq.backward(x), x)
    assert seq.params() == []
    assert seq.state_dict() == {}


def test_conv_batch_of_one():
    conv = Conv2d(1, 1, rng=0)
    out = conv.forward(np.ones((1, 1, 3, 3)))
    assert out.shape == (1, 1, 3, 3)


def test_sequential_load_partial_state_ignores_stateless():
    from repro.nn.layers import Linear, ReLU

    seq = Sequential(Linear(2, 2, rng=0), ReLU(), Linear(2, 2, rng=1))
    state = seq.state_dict()
    seq2 = Sequential(Linear(2, 2, rng=5), ReLU(), Linear(2, 2, rng=6))
    seq2.load_state_dict(state)
    x = np.random.default_rng(7).normal(size=(2, 2))
    np.testing.assert_allclose(seq.forward(x, training=False),
                               seq2.forward(x, training=False))
