"""Exact k-nearest-neighbor index.

Serves two roles: a correctness oracle for HNSW recall tests, and a drop-in
neighbor-search backend for small datasets where exact search is cheaper
than maintaining a graph index.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ann.distance import l2_distance_matrix, l2_distances, squared_norms

__all__ = ["BruteForceIndex"]

# Rows of the range scan handled per block: about 1 MiB of float64, so the
# block's elementwise passes run on cache-resident data.
_SCAN_BLOCK_ELEMS = 1 << 17


class BruteForceIndex:
    """Flat exact index with the same interface as :class:`HNSWIndex`.

    Supports incremental ``add``/``update`` keyed by integer ids, like the
    paper's dynamically updated HNSW index (embeddings change every time a
    sample is re-processed). Vectors, their squared norms and their ids live
    in three slot-indexed arrays that grow together; slot order is insertion
    order (``remove`` moves the last slot into the hole).
    """

    def __init__(self, dim: int, capacity: int = 1024) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self._data = np.empty((capacity, dim), dtype=np.float64)
        self._sq = np.empty(capacity, dtype=np.float64)
        self._ids = np.empty(capacity, dtype=np.int64)
        self._slot_of: Dict[int, int] = {}
        # Range-query scratch for the query-by-index product, reused across
        # calls (np.empty touches no page until the scan writes it).
        self._work = np.empty(0, dtype=np.float64)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, item_id: int) -> bool:
        return int(item_id) in self._slot_of

    @property
    def ids(self) -> List[int]:
        return self._ids[: len(self)].tolist()

    def vector(self, item_id: int) -> np.ndarray:
        """Return a copy of the stored vector for ``item_id``."""
        return self._data[self._slot_of[int(item_id)]].copy()

    # ------------------------------------------------------------------
    def _resize(self, capacity: int) -> None:
        """Reallocate the slot arrays, keeping the live prefix."""
        n = len(self)
        for name in ("_data", "_sq", "_ids"):
            old = getattr(self, name)
            grown = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)

    def _put(self, item_id: int, vector: np.ndarray, sq: float) -> None:
        slot = self._slot_of.get(item_id)
        if slot is None:
            slot = len(self._slot_of)
            if slot >= self._data.shape[0]:
                self._resize(max(4, 2 * self._data.shape[0]))
            self._ids[slot] = item_id
            self._slot_of[item_id] = slot
        self._data[slot] = vector
        self._sq[slot] = sq

    def add(self, item_id: int, vector: np.ndarray) -> None:
        """Insert or update a single vector."""
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape[0] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vector.shape[0]}")
        self._put(int(item_id), vector, squared_norms(vector[None, :])[0])

    def add_batch(self, item_ids: np.ndarray, vectors: np.ndarray) -> None:
        """Insert or update many vectors at once (later rows win on a
        repeated id)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        item_ids = np.asarray(item_ids).ravel()
        if len(item_ids) != len(vectors):
            raise ValueError("item_ids and vectors length mismatch")
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        for i, v, sq in zip(item_ids.tolist(), vectors, squared_norms(vectors)):
            self._put(int(i), v, sq)

    # ``update`` is an alias: brute-force storage overwrites in place.
    update = add

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Snapshot of ids (slot order) and stored vectors."""
        n = len(self)
        return {"ids": self._ids[:n].copy(), "vectors": self._data[:n].copy()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict` snapshot (slot order preserved)."""
        ids = np.asarray(state["ids"], dtype=np.int64)
        vectors = np.asarray(state["vectors"], dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError("vector snapshot does not match index dim")
        if ids.shape[0] != vectors.shape[0]:
            raise ValueError("ids and vectors length mismatch")
        n = ids.shape[0]
        self._slot_of = {}  # the old contents go: a resize carries nothing over
        if n > self._data.shape[0]:
            self._resize(n)
        self._data[:n] = vectors
        self._sq[:n] = squared_norms(vectors)
        self._ids[:n] = ids
        self._slot_of = {i: slot for slot, i in enumerate(ids.tolist())}

    def remove(self, item_id: int) -> None:
        """Delete a vector by id (swap-with-last)."""
        slot = self._slot_of.pop(int(item_id))
        last = len(self._slot_of)
        if slot != last:
            self._data[slot] = self._data[last]
            self._sq[slot] = self._sq[last]
            self._ids[slot] = self._ids[last]
            self._slot_of[int(self._ids[last])] = slot

    # ------------------------------------------------------------------
    def search(
        self, query: np.ndarray, k: int, exclude: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k-NN search.

        Returns ``(ids, distances)`` sorted ascending by distance. ``exclude``
        drops one id from the results (typically the query point itself when
        searching for a stored sample's neighbors).
        """
        n = len(self)
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        dists = l2_distances(query, self._data[:n])
        order = np.argsort(dists, kind="stable")
        ids = self._ids[:n][order]
        dists = dists[order]
        if exclude is not None:
            keep = ids != int(exclude)
            ids, dists = ids[keep], dists[keep]
        k = min(int(k), len(ids))
        return ids[:k], dists[:k]

    def search_batch(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k-NN for many queries at once (one GEMM).

        Returns ``(ids, dists)`` of shape ``(n_queries, k)``; rows are padded
        with ``-1``/``inf`` when fewer than ``k`` points are stored.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nq = queries.shape[0]
        n = len(self)
        k = int(k)
        out_ids = np.full((nq, k), -1, dtype=np.int64)
        out_d = np.full((nq, k), np.inf)
        if n == 0:
            return out_ids, out_d
        dmat = l2_distance_matrix(queries, self._data[:n])
        kk = min(k, n)
        part = np.argpartition(dmat, kk - 1, axis=1)[:, :kk]
        pd = np.take_along_axis(dmat, part, axis=1)
        order = np.argsort(pd, axis=1, kind="stable")
        sorted_idx = np.take_along_axis(part, order, axis=1)
        out_ids[:, :kk] = self._ids[:n][sorted_idx]
        out_d[:, :kk] = np.take_along_axis(dmat, sorted_idx, axis=1)
        return out_ids, out_d

    def neighbors_within_batch(
        self,
        queries: np.ndarray,
        radius: float,
        exclude: Optional[np.ndarray] = None,
        max_neighbors: int = 512,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Vectorized range query for many queries.

        Returns one ``(ids, dists)`` pair per query: every stored point with
        ``dist <= radius``, ascending by distance (ties in slot order) and
        truncated to ``max_neighbors``. ``exclude[i]`` (if given, negative =
        none) removes one id from query ``i``'s results — used to drop
        self-matches when queries are stored points.

        Distances are ``l2_distance_matrix``'s to the bit — one GEMM, then
        ``(|q|^2 + |v|^2) - 2 q.v`` in that order — but only candidates that
        pass a squared-space prefilter are clamped, square-rooted, tested
        against ``radius`` and sorted, so the cost past the GEMM follows the
        size of the answer, not of the index.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nq = queries.shape[0]
        n = len(self)
        if n == 0 or nq == 0:
            empty = (np.empty(0, dtype=np.int64), np.empty(0))
            return [empty for _ in range(nq)]
        if queries.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {queries.shape[1]}")
        need = nq * self._data.shape[0]
        if self._work.size < need:
            self._work = np.empty(need, dtype=np.float64)
        dots = self._work[: nq * n].reshape(nq, n)
        np.matmul(queries, self._data[:n].T, out=dots)
        qq = squared_norms(queries)
        vv = self._sq[:n]
        # sqrt is monotonic, so d <= radius implies sq <= radius^2 up to a
        # rounding the slack covers; the exact test follows on the survivors.
        sq_bound = radius * radius * (1.0 + 1e-9)
        block = max(1, _SCAN_BLOCK_ELEMS // n)
        hit_pos, hit_sq = [], []
        for start in range(0, nq, block):
            stop = min(nq, start + block)
            part = dots[start:stop]
            part *= 2.0
            sq = qq[start:stop, None] + vv[None, :]
            sq -= part
            hits = np.flatnonzero(sq <= sq_bound)
            hit_pos.append(hits + start * n)
            hit_sq.append(sq.ravel()[hits])
        dists = np.concatenate(hit_sq)
        np.maximum(dists, 0.0, out=dists)
        np.sqrt(dists, out=dists)
        rows, slots = np.divmod(np.concatenate(hit_pos), n)
        keep = dists <= radius
        if exclude is not None:
            slot_of = self._slot_of
            excluded = np.fromiter(
                (slot_of.get(e, -1) if e >= 0 else -1
                 for e in np.asarray(exclude).ravel().tolist()),
                dtype=np.int64, count=nq,
            )
            keep &= slots != excluded[rows]
        rows, dists = rows[keep], dists[keep]
        ids = self._ids[slots[keep]]
        bounds = np.searchsorted(rows, np.arange(nq + 1)).tolist()
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        for lo, hi in zip(bounds, bounds[1:]):
            row_d = dists[lo:hi]
            order = np.argsort(row_d, kind="stable")[:max_neighbors]
            results.append((ids[lo:hi][order], row_d[order]))
        return results

    def neighbors_within(
        self,
        query: np.ndarray,
        radius: float,
        exclude: Optional[int] = None,
        max_neighbors: int = 512,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All stored points with distance <= ``radius`` from ``query``: the
        one-row case of :meth:`neighbors_within_batch`."""
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        excl = None if exclude is None else np.asarray([exclude])
        return self.neighbors_within_batch(query, radius, excl, max_neighbors)[0]
