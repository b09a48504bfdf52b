"""Exact nearest-neighbour index.

Serves two roles: a correctness oracle for HNSW recall tests, and a drop-in
neighbor-search backend for small datasets where exact search is cheaper
than maintaining a graph index.

The range query is a filter-and-refine scan whose answer does not depend on
the filter's rounding
---------------------------------------------------------------------------
*What the answer is.* The distance of a query ``q`` to a stored ``v`` is the
float64 direct difference ``d = sqrt(sum((q - v)^2))``
(:func:`repro.ann.distance.paired_l2`); a point is returned iff
``d <= radius``, a row longer than ``max_neighbors`` keeps its smallest
``(d, slot)``. Nothing below changes that; it only avoids computing ``d``
for pairs whose fate a cheaper number already settles.

*The screen.* Beside the float64 rows the index keeps a float32 operand with
one column ``[v, 1, -|v|^2/2]`` per slot (derived state, rebuilt by every
write, never saved). One ``sgemm`` of the rows ``[q, -|q|^2/2, 1]`` against
it gives ``p ~ s = -d^2/2`` for every pair with no elementwise pass.

*The bound.* Write ``m = dim + 2``, ``u = 2^-24`` (float32 unit roundoff),
``t = 2^-126`` (smallest normal float32) and ``S = (|q| + |v|)^2 / 2``, which
by Cauchy-Schwarz bounds the sum of the ``m`` products' magnitudes. Rounding
both operands to float32 perturbs every product by at most ``2u`` of its
size, and the float32 inner product of ``m`` terms, in any summation order
and with or without fused multiply-adds, by at most ``m u / (1 - m u)`` of
that sum (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1):
to first order ``|p - s| <= (m + 2) u S``. Underflow — gradual, or flushed to
zero by the BLAS — adds at most ``t`` per stored entry, product and addition,
``3 m t`` in all. The scan uses ::

    band = 2 (dim + 6) u S  +  8 (dim + 2) t,      S taken at the largest |v|

i.e. the first-order bound with ``m + 4`` in place of ``m + 2`` (one more
ulp on either operand, which is what separates two BLAS builds) and then
doubled: the factor two covers every second-order term for ``dim < 10^6``
and the rounding of the float64 reference itself (``~dim 2^-53 S``). A row
whose ``S`` exceeds ``1e37`` (or is not finite) could overflow float32; it
gets ``band = inf``, i.e. is answered in float64 entirely.

*The decisions.* With ``c = -radius^2/2``: ``p >= c + band`` is in, ``p <
c - band`` is out, and only the pairs between are decided by ``d <= radius``.
A row with more than ``max_neighbors`` survivors keeps those whose ``p`` lies
more than ``2 band`` above the ``max_neighbors``-th largest ``p`` (each is
provably among the nearest), drops those more than ``2 band`` below it, and
ranks the few between by ``(d, slot)``. Sorting a returned row happens on
float64 ``d`` alone. So no comparison is ever taken on a float32 value
closer to its threshold than ``band``: perturbing the screen within its
bound changes which pairs are re-checked, never the answer.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ann.distance import (
    l2_distances,
    paired_l2,
    squared_norms,
)
from repro.ann.range_result import RangeResult

__all__ = ["BruteForceIndex"]

_U32 = 2.0 ** -24  # float32 unit roundoff
_TINY32 = 2.0 ** -126  # smallest normal float32
# Largest (|q| + |v|)^2 / 2 whose float32 partial sums cannot overflow.
_SCREEN_MAX = 1e37
# Pairs per float64 refine call: bounds the gathered operands (~dim * 1 MiB)
# when a degenerate scale sends whole rows to the refine.
_REFINE_CHUNK = 1 << 16


def _screen_operand(vectors: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Float32 columns ``[v, 1, -|v|^2/2]`` for rows ``vectors`` whose squared
    norms are ``sq`` (out-of-range values become ``inf``; see the module
    docstring for who catches that)."""
    k, dim = vectors.shape
    columns = np.empty((dim + 2, k), dtype=np.float32)
    with np.errstate(over="ignore"):
        columns[:dim] = vectors.T
        columns[dim] = 1.0
        columns[dim + 1] = -0.5 * sq
    return columns


class BruteForceIndex:
    """Flat exact index with the same interface as :class:`HNSWIndex`.

    Supports incremental ``add``/``update`` keyed by integer ids, like the
    paper's dynamically updated HNSW index (embeddings change every time a
    sample is re-processed). Vectors, their squared norms and their ids live
    in three slot-indexed arrays that grow together; slot order is insertion
    order (``remove`` moves the last slot into the hole). A fourth array,
    the float32 screen operand of the range scan (module docstring), holds
    one column per slot and follows every write.
    """

    def __init__(self, dim: int, capacity: int = 1024) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self._data = np.empty((capacity, dim), dtype=np.float64)
        self._sq = np.empty(capacity, dtype=np.float64)
        self._ids = np.empty(capacity, dtype=np.int64)
        self._aug = np.empty((dim + 2, capacity), dtype=np.float32)
        self._slot_of: Dict[int, int] = {}
        # Bumped by every write: a range result reads its rows' distances
        # lazily and must not read them off vectors that moved since.
        self._version = 0
        # Range-query scratch for the query-by-index screen, reused across
        # calls (np.empty touches no page until the scan writes it).
        self._work = np.empty(0, dtype=np.float32)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, item_id: int) -> bool:
        return int(item_id) in self._slot_of

    @property
    def ids(self) -> List[int]:
        return self._ids[: len(self)].tolist()

    # ------------------------------------------------------------------
    def _resize(self, capacity: int, n: int) -> None:
        """Reallocate the slot arrays, keeping their first ``n`` slots."""
        for name in ("_data", "_sq", "_ids"):
            old = getattr(self, name)
            grown = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)
        grown = np.empty((self.dim + 2, capacity), dtype=np.float32)
        grown[:, :n] = self._aug[:, :n]
        self._aug = grown

    def _write(self, slots, ids, vectors: np.ndarray) -> None:
        """Store ``vectors`` (and everything derived from them) at ``slots``."""
        sq = squared_norms(vectors)
        self._ids[slots] = ids
        self._data[slots] = vectors
        self._sq[slots] = sq
        self._aug[:, slots] = _screen_operand(vectors, sq)
        self._version += 1

    def add(self, item_id: int, vector: np.ndarray) -> None:
        """Insert or update a single vector."""
        self.add_batch([item_id], np.asarray(vector, dtype=np.float64).reshape(1, -1))

    def add_batch(self, item_ids: np.ndarray, vectors: np.ndarray) -> None:
        """Insert or update many vectors at once (later rows win on a
        repeated id)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        item_ids = np.asarray(item_ids, dtype=np.int64).ravel()
        if len(item_ids) != len(vectors):
            raise ValueError("item_ids and vectors length mismatch")
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        last_row = {item_id: row for row, item_id in enumerate(item_ids.tolist())}
        if len(last_row) < len(item_ids):
            rows = list(last_row.values())
            item_ids, vectors = item_ids[rows], vectors[rows]
        slot_of = self._slot_of
        n = len(slot_of)
        slots = np.array(
            [slot_of.setdefault(item_id, len(slot_of)) for item_id in last_row],
            dtype=np.intp,
        )
        capacity = self._data.shape[0]
        if len(slot_of) > capacity:
            while capacity < len(slot_of):
                capacity = max(4, 2 * capacity)
            self._resize(capacity, n)
        self._write(slots, item_ids, vectors)

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
        if n > self._data.shape[0]:
            self._resize(n, 0)  # the old contents go
        self._write(slice(0, n), ids, vectors)
        self._slot_of = {i: slot for slot, i in enumerate(ids.tolist())}

    def remove(self, item_id: int) -> None:
        """Delete a vector by id (swap-with-last)."""
        slot = self._slot_of.pop(int(item_id))
        last = len(self._slot_of)
        if slot != last:
            self._data[slot] = self._data[last]
            self._sq[slot] = self._sq[last]
            self._ids[slot] = self._ids[last]
            self._aug[:, slot] = self._aug[:, last]
            self._slot_of[int(self._ids[last])] = slot
        self._version += 1

    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k-NN search: ``(ids, distances)`` sorted ascending by
        distance."""
        n = len(self)
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        dists = l2_distances(query, self._data[:n])
        order = np.argsort(dists, kind="stable")
        ids = self._ids[:n][order]
        k = min(int(k), len(ids))
        return ids[:k], dists[order][:k]

    def neighbors_within_batch(
        self,
        queries: np.ndarray,
        radius: float,
        exclude: Optional[np.ndarray] = None,
        max_neighbors: int = 512,
    ) -> RangeResult:
        """Vectorized range query for many queries.

        Reads as one ``(ids, dists)`` pair per query: every stored point with
        ``dist <= radius``, ascending by distance (ties in slot order) and
        truncated to ``max_neighbors``. ``exclude[i]`` (if given, negative =
        none) removes one id from query ``i``'s results — used to drop
        self-matches when queries are stored points.

        The :class:`RangeResult` holds each row's members (``offsets`` /
        ``ids``, members in slot order); a row's float64 distances are
        computed and sorted when the row is read, which must happen before
        the next write to the index. Membership is decided by the float32
        screen wherever that is safe and by the float64 distance elsewhere,
        as the module docstring derives.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {queries.shape[1]}")
        if max_neighbors < 1:
            raise ValueError("max_neighbors must be positive")
        nq, n, dim = queries.shape[0], len(self), self.dim
        if n == 0 or nq == 0:
            return self._range_result(
                queries, np.zeros(nq + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        if self._work.size < nq * self._data.shape[0]:
            self._work = np.empty(nq * self._data.shape[0], dtype=np.float32)
        flat = self._work[: nq * n]
        screen = flat.reshape(nq, n)
        with np.errstate(over="ignore", invalid="ignore"):
            qq = squared_norms(queries)
            reach = 0.5 * (np.sqrt(qq) + math.sqrt(self._sq[:n].max())) ** 2
            screened = reach <= _SCREEN_MAX
            band = np.where(
                screened,
                2 * (dim + 6) * _U32 * reach + 8 * (dim + 2) * _TINY32,
                np.inf,
            )
            lhs = np.empty((nq, dim + 2), dtype=np.float32)
            lhs[:, :dim] = queries
            lhs[:, dim] = -0.5 * qq
            lhs[:, dim + 1] = 1.0
            np.matmul(lhs, self._aug[:, :n], out=screen)
            screen[~screened] = 0.0
            # Negative or NaN radius: nothing is within it.
            cut = -0.5 * radius * radius if radius >= 0 else np.inf
            # Rounded down, so the float32 compare loses no candidate.
            low = np.nextafter((cut - band).astype(np.float32), np.float32(-np.inf))
            hits = np.flatnonzero(screen >= low[:, None])
            rows, slots = np.divmod(hits, n)
            approx = flat[hits].astype(np.float64)
            keep = approx >= (cut + band)[rows]
        unsure = np.flatnonzero(~keep)
        keep[unsure] = self._refine(queries, rows[unsure], slots[unsure]) <= radius
        if exclude is not None:
            slot_of = self._slot_of
            excluded = np.fromiter(
                (slot_of.get(e, -1) if e >= 0 else -1
                 for e in np.asarray(exclude).ravel().tolist()),
                dtype=np.int64, count=nq,
            )
            keep &= slots != excluded[rows]
        rows, slots, approx = rows[keep], slots[keep], approx[keep]
        offsets = np.searchsorted(rows, np.arange(nq + 1))
        degree = np.diff(offsets)
        crowded = np.flatnonzero(degree > max_neighbors)
        if crowded.size:
            keep = np.ones(slots.size, dtype=bool)
            for i in crowded.tolist():
                lo, hi = offsets[i], offsets[i + 1]
                keep[lo:hi] = self._nearest(
                    queries[i], slots[lo:hi], approx[lo:hi],
                    max_neighbors, 2.0 * band[i],
                )
            slots = slots[keep]
            offsets = np.concatenate(
                ([0], np.cumsum(np.minimum(degree, max_neighbors)))
            )
        return self._range_result(queries, offsets, slots)

    def _refine(
        self, queries: np.ndarray, rows: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        """Float64 distance of ``queries[rows[k]]`` to slot ``slots[k]``."""
        dists = np.empty(rows.size)
        for start in range(0, rows.size, _REFINE_CHUNK):
            part = slice(start, start + _REFINE_CHUNK)
            dists[part] = paired_l2(queries[rows[part]], self._data[slots[part]])
        return dists

    def _nearest(
        self,
        query: np.ndarray,
        slots: np.ndarray,
        approx: np.ndarray,
        k: int,
        slack: float,
    ) -> np.ndarray:
        """Mask of the ``k`` smallest ``(distance, slot)`` among ``slots``
        (ascending), given screen values within ``slack / 2`` of ``-d^2/2``.

        Above ``pivot + slack`` a value's true ``-d^2/2`` exceeds
        ``pivot + slack/2``, which fewer than ``k`` members can; below
        ``pivot - slack`` it is beaten by the ``k`` members at or above the
        pivot. Only the members between are measured.
        """
        pivot = np.partition(approx, approx.size - k)[approx.size - k]
        chosen = approx > pivot + slack
        close = np.flatnonzero((approx >= pivot - slack) & ~chosen)
        order = np.argsort(paired_l2(query, self._data[slots[close]]), kind="stable")
        chosen[close[order[: k - np.count_nonzero(chosen)]]] = True
        return chosen

    def _range_result(
        self, queries: np.ndarray, offsets: np.ndarray, slots: np.ndarray
    ) -> RangeResult:
        """Wrap row ``i`` = ``slots[offsets[i]:offsets[i + 1]]`` of ``queries``,
        readable until the next write."""
        return RangeResult(
            offsets, self._ids[slots],
            partial(self._sorted_row, self._version, queries, offsets, slots),
        )

    def _sorted_row(
        self,
        version: int,
        queries: np.ndarray,
        offsets: np.ndarray,
        slots: np.ndarray,
        i: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``i`` of a range result as ``(ids, dists)``, ascending."""
        if version != self._version:
            raise RuntimeError(
                "the index was written to after this range query ran; "
                "read a result's rows before the next add / remove / load"
            )
        row = slots[offsets[i]:offsets[i + 1]]
        dists = paired_l2(queries[i], self._data[row])
        order = np.argsort(dists, kind="stable")
        return self._ids[row[order]], dists[order]
