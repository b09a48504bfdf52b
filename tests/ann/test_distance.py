"""Distance-kernel tests, including property checks against naive loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ann.distance import (
    l2_distance_matrix,
    l2_distances,
    pairwise_l2,
)


def _naive_l2(a, b):
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))


def test_l2_distances_matches_naive():
    rng = np.random.default_rng(0)
    q = rng.normal(size=8)
    pts = rng.normal(size=(20, 8))
    expected = np.linalg.norm(pts - q, axis=1)
    np.testing.assert_allclose(l2_distances(q, pts), expected, rtol=1e-10)


def test_l2_distances_dimension_mismatch():
    with pytest.raises(ValueError):
        l2_distances(np.zeros(3), np.zeros((5, 4)))


def test_l2_distance_matrix_matches_naive():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 5))
    b = rng.normal(size=(9, 5))
    np.testing.assert_allclose(l2_distance_matrix(a, b), _naive_l2(a, b), rtol=1e-9)


def test_l2_distance_matrix_mismatch_raises():
    with pytest.raises(ValueError):
        l2_distance_matrix(np.zeros((2, 3)), np.zeros((2, 4)))


def test_pairwise_zero_diagonal():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(12, 4))
    d = pairwise_l2(pts)
    assert np.all(np.diag(d) == 0.0)
    np.testing.assert_allclose(d, d.T, atol=1e-12)


def test_identical_points_zero_distance():
    p = np.ones((3, 4))
    assert np.allclose(pairwise_l2(p), 0.0)


def test_1d_inputs_accepted():
    d = l2_distance_matrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(d, [[np.sqrt(2)]])


def test_3d_input_rejected():
    with pytest.raises(ValueError):
        l2_distances(np.zeros(2), np.zeros((2, 2, 2)))


@given(
    arrays(np.float64, (5, 4), elements=st.floats(-100, 100)),
    arrays(np.float64, (7, 4), elements=st.floats(-100, 100)),
)
@settings(max_examples=50)
def test_property_nonneg_and_triangle_free(a, b):
    """Distances are non-negative and symmetric-consistent."""
    d = l2_distance_matrix(a, b)
    assert np.all(d >= 0)
    # The GEMM expansion loses ~1e-8 of absolute precision at large norms.
    np.testing.assert_allclose(d, _naive_l2(a, b), atol=1e-4)


@given(arrays(np.float64, (6, 3), elements=st.floats(-50, 50)))
@settings(max_examples=50)
def test_property_pairwise_triangle_inequality(pts):
    d = pairwise_l2(pts)
    n = len(pts)
    # The GEMM expansion loses ~1e-7 of absolute precision at these
    # magnitudes, so the slack must sit above it (same idiom as above).
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-5
