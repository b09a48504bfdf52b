"""Seeded RNG plumbing.

Every stochastic component (samplers, dataset generators, HNSW level draws,
latency models) accepts either a seed, an existing ``numpy.random.Generator``,
or ``None``. Centralizing the coercion keeps experiments reproducible: the
same integer seed always yields the same stream.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["resolve_rng", "RngLike"]

RngLike = Union[None, int, np.random.Generator]


def resolve_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a ``numpy.random.Generator``.

    ``None`` yields a fresh nondeterministic generator; an int seeds one;
    a Generator passes through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot make an RNG from {type(rng).__name__}")
