"""Product Quantization (PQ) codec.

Paper §5: "we adopt the HNSW algorithm in conjunction with quantization
(Product Quantization) to minimize storage" — the Table-2 compression ratios
(~1000x over raw images) come from storing PQ codes instead of float
embeddings. This module implements the standard Jégou et al. scheme: split
each vector into ``m`` subvectors, k-means-quantize each subspace to
``2**nbits`` centroids, store one code byte per subspace.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ann.distance import l2_distance_matrix
from repro.utils.rng import RngLike, resolve_rng

__all__ = ["ProductQuantizer"]

#: Lloyd iterations per subspace codebook (fewer when the centroids settle).
KMEANS_ITERS = 20


def _kmeans(
    data: np.ndarray,
    k: int,
    rng: np.random.Generator,
    init: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Plain Lloyd's k-means returning centroids of shape ``(k, d)``.

    k-means++ seeding (or explicit ``init`` centroids, used by tests to
    exercise degenerate starts); empty clusters are re-seeded from the
    farthest points, with distances recomputed against the *updated*
    centroids and each chosen seed marked used so two empty clusters can
    never re-seed from the same point.
    """
    n = data.shape[0]
    if n == 0:
        raise ValueError("cannot run k-means on empty data")
    k = min(k, n)
    if init is not None:
        centroids = np.array(init, dtype=np.float64)
        if centroids.shape != (k, data.shape[1]):
            raise ValueError("init centroids shape mismatch")
    else:
        # k-means++ initialization.
        centroids = np.empty((k, data.shape[1]))
        first = int(rng.integers(n))
        centroids[0] = data[first]
        closest_sq = np.sum((data - centroids[0]) ** 2, axis=1)
        for j in range(1, k):
            total = closest_sq.sum()
            if total <= 0:
                centroids[j:] = data[rng.integers(n, size=k - j)]
                break
            probs = closest_sq / total
            idx = int(rng.choice(n, p=probs))
            centroids[j] = data[idx]
            d = np.sum((data - centroids[j]) ** 2, axis=1)
            np.minimum(closest_sq, d, out=closest_sq)

    for _ in range(KMEANS_ITERS):
        d2 = l2_distance_matrix(data, centroids)
        assign = np.argmin(d2, axis=1)
        moved = False
        empty = []
        for j in range(k):
            members = data[assign == j]
            if len(members) == 0:
                empty.append(j)
                continue
            new_c = members.mean(axis=0)
            if not np.allclose(new_c, centroids[j]):
                centroids[j] = new_c
                moved = True
        if empty:
            # Re-seed each empty cluster from the point farthest from the
            # *updated* centroids. min_d2 is refreshed after every seed (and
            # the seed itself knocked out) so repeated empties spread out
            # instead of all landing on the same stale-farthest point.
            min_d2 = np.min(l2_distance_matrix(data, centroids), axis=1) ** 2
            for j in empty:
                far = int(np.argmax(min_d2))
                centroids[j] = data[far]
                d_new = np.sum((data - centroids[j]) ** 2, axis=1)
                np.minimum(min_d2, d_new, out=min_d2)
                min_d2[far] = -np.inf
                moved = True
        if not moved:
            break
    return centroids


class ProductQuantizer:
    """PQ codec: ``encode`` to uint8 codes, ``decode`` to approximations,
    and asymmetric-distance (ADC) search against encoded databases.

    Parameters
    ----------
    dim:
        Vector dimensionality; must be divisible by ``m``.
    m:
        Number of subspaces (bytes per code).
    nbits:
        Bits per subspace code; centroids per subspace = ``2**nbits`` (<= 8).
    """

    def __init__(self, dim: int, m: int = 8, nbits: int = 8) -> None:
        if dim % m != 0:
            raise ValueError(f"dim={dim} not divisible by m={m}")
        if not (1 <= nbits <= 8):
            raise ValueError("nbits must be in [1, 8]")
        self.dim = int(dim)
        self.m = int(m)
        self.nbits = int(nbits)
        self.ksub = 1 << nbits
        self.dsub = dim // m
        self.codebooks: Optional[np.ndarray] = None  # (m, ksub, dsub)

    # ------------------------------------------------------------------
    def train(self, data: np.ndarray, rng: RngLike = None) -> None:
        """Learn per-subspace codebooks from training vectors."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if data.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {data.shape[1]}")
        gen = resolve_rng(rng)
        books = np.zeros((self.m, self.ksub, self.dsub))
        for j in range(self.m):
            sub = data[:, j * self.dsub : (j + 1) * self.dsub]
            cents = _kmeans(sub, self.ksub, gen)
            books[j, : cents.shape[0]] = cents
            if cents.shape[0] < self.ksub:
                # Fewer training points than centroids: repeat the last one so
                # every code decodes to something sensible.
                books[j, cents.shape[0] :] = cents[-1]
        self.codebooks = books

    def _require_trained(self) -> np.ndarray:
        if self.codebooks is None:
            raise RuntimeError("ProductQuantizer must be trained before use")
        return self.codebooks

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Quantize vectors to uint8 codes of shape ``(n, m)``."""
        books = self._require_trained()
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if data.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {data.shape[1]}")
        codes = np.empty((data.shape[0], self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = data[:, j * self.dsub : (j + 1) * self.dsub]
            d2 = l2_distance_matrix(sub, books[j])
            codes[:, j] = np.argmin(d2, axis=1).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        books = self._require_trained()
        codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
        if codes.shape[1] != self.m:
            raise ValueError(f"expected {self.m} code bytes, got {codes.shape[1]}")
        out = np.empty((codes.shape[0], self.dim))
        for j in range(self.m):
            out[:, j * self.dsub : (j + 1) * self.dsub] = books[j][codes[:, j]]
        return out

    def adc_distances(self, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Asymmetric distances (query vs encoded DB) via lookup tables.

        Builds the per-query ``(m, ksub)`` table of squared subspace
        distances, then sums table entries per code — the standard ADC trick
        that makes PQ search O(n·m) instead of O(n·dim).
        """
        books = self._require_trained()
        query = np.asarray(query, dtype=np.float64).ravel()
        if query.shape[0] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {query.shape[0]}")
        table = np.empty((self.m, self.ksub))
        for j in range(self.m):
            qsub = query[j * self.dsub : (j + 1) * self.dsub]
            diff = books[j] - qsub
            table[j] = np.einsum("ij,ij->i", diff, diff)
        codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
        sq = table[np.arange(self.m)[None, :], codes].sum(axis=1)
        np.maximum(sq, 0.0, out=sq)
        return np.sqrt(sq)

    def quantization_error(self, data: np.ndarray) -> float:
        """Mean L2 reconstruction error over ``data``."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        recon = self.decode(self.encode(data))
        return float(np.linalg.norm(data - recon, axis=1).mean())
