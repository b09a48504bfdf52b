"""Optimizers and learning-rate schedules."""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

__all__ = ["SGD", "ConstantLR", "CosineLR"]


class _LRSchedule:
    """Maps epoch -> learning rate."""

    def lr_at(self, epoch: int) -> float:
        """Learning rate to use during ``epoch``."""
        raise NotImplementedError


class ConstantLR(_LRSchedule):
    """Fixed learning rate."""

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr

    def lr_at(self, epoch: int) -> float:
        return self.lr


class CosineLR(_LRSchedule):
    """Cosine annealing from ``lr`` to zero over ``total_epochs``."""

    def __init__(self, lr: float, total_epochs: int) -> None:
        if total_epochs <= 0:
            raise ValueError("total_epochs must be positive")
        self.lr = lr
        self.total_epochs = total_epochs

    def lr_at(self, epoch: int) -> float:
        t = min(epoch, self.total_epochs) / self.total_epochs
        return 0.5 * self.lr * (1 + math.cos(math.pi * t))


class SGD:
    """Stochastic gradient descent with momentum.

    Operates on the ``(param, grad)`` pairs a :class:`~repro.nn.layers.Layer`
    exposes; updates are in place so layers see new weights immediately.
    """

    def __init__(
        self,
        params: List[Tuple[np.ndarray, np.ndarray]],
        lr: float = 0.01,
        momentum: float = 0.0,
        schedule: _LRSchedule | None = None,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.schedule = schedule or ConstantLR(lr)
        self._velocity = [np.zeros_like(p) for p, _ in params]
        self.epoch = 0

    def set_epoch(self, epoch: int) -> None:
        """Advance the LR schedule."""
        self.epoch = epoch

    @property
    def current_lr(self) -> float:
        return self.schedule.lr_at(self.epoch)

    def step(self) -> None:
        """Apply one update from accumulated gradients."""
        lr = self.current_lr
        for (p, g), v in zip(self.params, self._velocity):
            upd = g
            if self.momentum:
                v *= self.momentum
                v += upd
                upd = v
            p -= lr * upd

    def zero_grad(self) -> None:
        """Reset all parameter gradients to zero."""
        for _, g in self.params:
            g.fill(0.0)
