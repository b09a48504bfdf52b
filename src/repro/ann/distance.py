"""Vectorized distance kernels.

Paper Eq. 1 uses Euclidean distance between embeddings. All kernels are
written against 2-D float arrays and use the expansion
``||x-y||^2 = ||x||^2 + ||y||^2 - 2 x·y`` so the hot path is a single GEMM
(see the scientific-python optimization guidance: vectorize, avoid copies).

Precision note: the expansion cancels catastrophically for near-identical
vectors with large norms — expect ~1e-8 absolute error on distances that are
truly zero. That is far below the embedding scales the graph construction
thresholds on; callers needing exact zeros should compare ids, not distances.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "squared_norms",
    "l2_distances",
    "l2_distance_matrix",
    "paired_l2",
    "pairwise_l2",
]


def _as_2d(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :]
    if x.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D array, got ndim={x.ndim}")
    return x


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a 2-D array.

    The one kernel every ``||x||^2`` term below comes from, so an index that
    caches it per row reproduces these distances to the bit.
    """
    return np.einsum("ij,ij->i", rows, rows)


def l2_distances(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from one query vector to each row of ``points``.

    Returns shape ``(len(points),)``.
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    points = _as_2d(points)
    if points.shape[1] != query.shape[0]:
        raise ValueError(
            f"dimension mismatch: query has {query.shape[0]}, points have {points.shape[1]}"
        )
    diff_sq = squared_norms(points) - 2.0 * (points @ query)
    diff_sq += query @ query
    np.maximum(diff_sq, 0.0, out=diff_sq)
    return np.sqrt(diff_sq)


def l2_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full distance matrix between rows of ``a`` and rows of ``b``.

    Returns shape ``(len(a), len(b))``.
    """
    a, b = _as_2d(a), _as_2d(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch between a and b")
    sq = squared_norms(a)[:, None] + squared_norms(b)[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def paired_l2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between matching rows of ``a`` and ``b`` (either
    may be one vector, broadcast), by direct difference.

    ``sqrt(sum((a - b)^2))`` never subtracts two large numbers to get a
    small one, so unlike the GEMM expansion above its relative error is a
    few ulps at any distance — the form the exact range query refines and
    reports with. ``dim`` times the cost of a GEMM entry: for short lists.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(squared_norms(np.asarray(a) - np.asarray(b)))


def pairwise_l2(points: np.ndarray) -> np.ndarray:
    """Symmetric pairwise distance matrix of one point set."""
    d = l2_distance_matrix(points, points)
    # Enforce exact zeros on the diagonal (fp noise otherwise).
    np.fill_diagonal(d, 0.0)
    return d
