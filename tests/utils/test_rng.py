"""RNG plumbing tests."""

import numpy as np
import pytest

from repro.utils.rng import resolve_rng


def test_resolve_from_seed_is_deterministic():
    a = resolve_rng(42).random(5)
    b = resolve_rng(42).random(5)
    assert np.array_equal(a, b)


def test_resolve_passthrough_generator():
    gen = np.random.default_rng(0)
    assert resolve_rng(gen) is gen


def test_resolve_none_gives_generator():
    assert isinstance(resolve_rng(None), np.random.Generator)


def test_resolve_numpy_integer():
    assert isinstance(resolve_rng(np.int64(7)), np.random.Generator)


def test_resolve_rejects_bad_type():
    with pytest.raises(TypeError):
        resolve_rng("seed")
