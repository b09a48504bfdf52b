"""Optimizer and LR-schedule tests."""

import numpy as np
import pytest

from repro.nn.optim import SGD, ConstantLR, CosineLR


def _param(value=1.0):
    p = np.array([value])
    g = np.array([0.0])
    return p, g


def test_sgd_basic_step():
    p, g = _param(1.0)
    opt = SGD([(p, g)], lr=0.1)
    g[0] = 2.0
    opt.step()
    assert p[0] == pytest.approx(1.0 - 0.1 * 2.0)


def test_sgd_momentum_accumulates():
    p, g = _param(0.0)
    opt = SGD([(p, g)], lr=1.0, momentum=0.9)
    g[0] = 1.0
    opt.step()  # v=1, p=-1
    opt.step()  # v=1.9, p=-2.9
    assert p[0] == pytest.approx(-2.9)


def test_sgd_zero_grad():
    p, g = _param()
    opt = SGD([(p, g)], lr=0.1)
    g[0] = 5.0
    opt.zero_grad()
    assert g[0] == 0.0


def test_sgd_invalid_params():
    p, g = _param()
    with pytest.raises(ValueError):
        SGD([(p, g)], lr=0.0)
    with pytest.raises(ValueError):
        SGD([(p, g)], lr=0.1, momentum=1.0)


def test_sgd_converges_quadratic():
    """SGD minimizes f(w) = (w-3)^2."""
    w = np.array([0.0])
    g = np.array([0.0])
    opt = SGD([(w, g)], lr=0.1, momentum=0.5)
    for _ in range(100):
        g[0] = 2 * (w[0] - 3.0)
        opt.step()
        g[0] = 0.0
    assert w[0] == pytest.approx(3.0, abs=1e-6)


def test_constant_lr():
    assert ConstantLR(0.1).lr_at(1000) == 0.1
    with pytest.raises(ValueError):
        ConstantLR(0.0)


def test_cosine_lr_endpoints():
    c = CosineLR(1.0, total_epochs=100)
    assert c.lr_at(0) == pytest.approx(1.0)
    assert c.lr_at(100) == pytest.approx(0.0)
    assert c.lr_at(50) == pytest.approx(0.5)


def test_cosine_monotone_decreasing():
    c = CosineLR(1.0, total_epochs=50)
    lrs = [c.lr_at(e) for e in range(51)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_schedule_drives_optimizer():
    p, g = _param(0.0)
    opt = SGD([(p, g)], lr=1.0, schedule=CosineLR(1.0, total_epochs=4))
    assert opt.current_lr == 1.0
    opt.set_epoch(2)
    assert opt.current_lr == pytest.approx(0.5)
