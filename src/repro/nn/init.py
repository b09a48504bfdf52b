"""Weight initializers."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, resolve_rng

__all__ = ["he_init"]


def he_init(shape: tuple, fan_in: int, rng: RngLike = None) -> np.ndarray:
    """He-normal initialization (std = sqrt(2/fan_in)); for ReLU nets."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    gen = resolve_rng(rng)
    return gen.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
