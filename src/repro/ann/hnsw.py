"""Hierarchical Navigable Small World (HNSW) index, from scratch.

Implements Malkov & Yashunin (2018) — the library the paper adopts for its
graph-based importance sampling (§4.1): "we use the HNSW library for its
fast index construction and support for dynamic sample updates".

Structure: every element gets a random top layer ``l`` drawn geometrically
(``l = floor(-ln(U) * mL)``, ``mL = 1/ln(M)``). Each layer is a proximity
graph; search greedily descends from the global entry point through upper
layers, then runs a beam search (width ``ef``) at layer 0.

Storage layout: vectors live in one contiguous ``(capacity, dim)`` float64
matrix with cached squared norms. The graph is one padded ``(capacity, M0
or M)`` int32 matrix per layer: a row's out-list in list order, packed
left, then ``-1``; its degree is its count of entries. A hop gathers the
adjacency of many nodes with one fancy-index, and every edit — link,
back-link, prune, detach — is an array operation over a whole insertion
pass. Distances use ``||v-q||^2 = ||v||^2 - 2 v·q + ||q||^2`` with
``||v||^2`` precomputed. An id→row map keeps the public API keyed by stable
external ids. No reverse edges are kept: detaching a pass's members on
dynamic ``update``/``remove`` is one scan per layer of the rows that have a
list there, through a boolean table over rows. For 64 members that costs
1.6 / 6.3 / 27 ms at 2 250 / 20 000 / 100 000 rows (synthetic random
32-wide layer 0 and geometric levels, one core): O(rows) per pass.

Dynamic updates (embeddings drift as the model trains) are supported by
re-linking: ``update`` detaches the node from all its neighbors and
re-inserts it with its new vector, preserving its id.

Queries have one path: a single ``search`` / ``neighbors_within`` is a batch
of one over the lockstep greedy descent and beam, whose state is arrays —
per query, members sorted by ``(distance, id)`` with an expanded flag — and
whose every hop expands up to ``_EXPAND`` nearest unexpanded members of
every query at once. Every traversal orders ties by ``(distance, external
id)``, never by row. Range queries (``neighbors_within*``, the scorer's
only question) run that beam with a radius: ``EF_SEARCH`` wide while the
beam's worst member is outside the radius, then as large as the in-radius
set it finds (see :meth:`HNSWIndex._search_layer_batch`), so the nodes
visited follow the size of the answer rather than ``max_neighbors``.
Insertion runs on the same beam: :meth:`HNSWIndex.add_batch` searches a whole
batch in lockstep, adds the batch's other members as exact candidates (and an
update's old neighbours), and one kernel, :meth:`HNSWIndex._select_many`,
picks every new node's neighbours and prunes every list the back-links
overfill; ``add`` is a batch of one.
:meth:`HNSWIndex.state_dict` snapshots everything later behaviour depends on,
level-draw rng included, so a restored index continues exactly as the original.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ann.range_result import RangeResult
from repro.utils.rng import RngLike, resolve_rng

__all__ = ["HNSWIndex"]

#: Beam width of a query that names no ``ef``.
EF_SEARCH = 50
_FREE = -1  # sentinel in _id_of for rows on the free list
_INSERT_CHUNK = 64  # most ids per insertion pass: bounds its B×B distance block
# Members one beam hop expands per query. One per hop took 441 hops per
# range pass on train_hnsw's scorer stream. perfbench train_hnsw, seeds
# 0-1, 2-vCPU host: 1 / 8 / 16 / 32 / unbounded ran 297-354 / 635-674 /
# 706-730 / 815-825 / 218-232 samples/s, all at 55.7-62.0 MiB peak RSS
# (the hop's temporaries are bounded by _HOP_BYTES).
_EXPAND = 8
# Bytes of one lockstep pass's state: its (queries, rows) int32 stamp
# matrix plus its beam arrays.
_VISITED_BYTES = 32 << 20
# Bytes of a beam slot: squared distance, row and expanded flag.
_SLOT_BYTES = 17
# Gathered vectors + queries per distance block of a beam hop.
_HOP_BYTES = 1 << 20
# Gathered vectors + cross distances per _select_many float block, and
# bool closer flags per _select_many chunk.
_BLOCK_BYTES = 2 << 20


class HNSWIndex:
    """Approximate nearest-neighbor index over L2 distance.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    M:
        Max out-degree per node on upper layers (layer 0 allows ``2*M``).
        The paper's ``neighbormax`` normalizer (Eq. 4, default 500) is a
        property of the *similarity graph* built on top of this index, not
        of HNSW's ``M``.
    ef_construction:
        Beam width during insertion. Queries use :data:`EF_SEARCH` unless
        a k-NN :meth:`search` names its own ``ef``.
    rng:
        Seed / generator for the level draws (determinism in tests).
    capacity:
        Initial row allocation for the vector matrix (grows by doubling).
        Pre-sizing to the expected element count avoids regrowth copies.
    """

    def __init__(
        self,
        dim: int,
        M: int = 16,
        ef_construction: int = 100,
        rng: RngLike = None,
        capacity: int = 1024,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if M < 2:
            raise ValueError("M must be >= 2")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.dim = int(dim)
        self.M = int(M)
        self.M0 = 2 * int(M)
        self.ef_construction = max(int(ef_construction), M)
        self._mL = 1.0 / math.log(M)
        self._rng = resolve_rng(rng)
        # Flat storage: row-indexed vector matrix + cached squared norms.
        self._vectors = np.empty((int(capacity), self.dim), dtype=np.float64)
        self._norms = np.empty(int(capacity), dtype=np.float64)
        self._levels: List[int] = []  # row -> top layer
        self._id_of: List[int] = []  # row -> external id (_FREE when vacant)
        self._row_of: Dict[int, int] = {}  # external id -> row
        self._free: List[int] = []  # vacated rows available for reuse
        self._entry: Optional[int] = None  # external id of the entry point
        self._max_level = -1
        # layer -> (capacity, M0 or M) int32 adjacency: each row's out-list,
        # packed left, then -1. The graph's only store.
        self._adj: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, item_id: int) -> bool:
        return int(item_id) in self._row_of

    @property
    def ids(self) -> List[int]:
        """External ids in insertion order."""
        return list(self._row_of)

    @property
    def max_level(self) -> int:
        """Top layer of the current entry point (-1 when empty)."""
        return self._max_level

    def node_level(self, item_id: int) -> int:
        """Top layer assigned to a node."""
        return self._levels[self._row_of[int(item_id)]]

    def graph_neighbors(self, item_id: int, layer: int = 0) -> List[int]:
        """Adjacency list of a node at ``layer`` (copies, safe to mutate)."""
        row = self._row_of[int(item_id)]
        if layer > self._levels[row]:
            return []
        return [self._id_of[r] for r in self._adj[layer][row].tolist() if r >= 0]

    # ------------------------------------------------------------------
    # Row allocation
    # ------------------------------------------------------------------
    def _grow(self, min_rows: int) -> None:
        new_cap = max(4, self._vectors.shape[0])
        while new_cap < min_rows:
            new_cap *= 2
        if new_cap == self._vectors.shape[0]:
            return
        used = len(self._id_of)
        grown = np.empty((new_cap, self.dim), dtype=np.float64)
        grown[:used] = self._vectors[:used]
        self._vectors = grown
        norms = np.empty(new_cap, dtype=np.float64)
        norms[:used] = self._norms[:used]
        self._norms = norms
        for layer, mat in enumerate(self._adj):
            grown_adj = np.full((new_cap, mat.shape[1]), -1, dtype=np.int32)
            grown_adj[:used] = mat[:used]
            self._adj[layer] = grown_adj

    def _add_layers(self, level: int) -> None:
        """Padded adjacency matrices for every layer up to ``level``."""
        while len(self._adj) <= level:
            width = self.M0 if not self._adj else self.M
            self._adj.append(
                np.full((self._vectors.shape[0], width), -1, dtype=np.int32)
            )

    def _alloc_row(self, item_id: int, level: int) -> int:
        """An edgeless row for ``item_id`` (reusing freed rows first); the
        caller stores its vector and maps the id to it."""
        self._add_layers(level)
        if self._free:
            row = self._free.pop()
            self._id_of[row] = item_id
            self._levels[row] = level
        else:
            row = len(self._id_of)
            if row >= self._vectors.shape[0]:
                self._grow(row + 1)
            self._id_of.append(item_id)
            self._levels.append(level)
        return row

    def _release_row(self, item_id: int) -> None:
        row = self._row_of.pop(item_id)
        self._id_of[row] = _FREE
        self._free.append(row)

    # ------------------------------------------------------------------
    # Distance helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _rows_array(rows: Sequence[int]) -> np.ndarray:
        return np.fromiter(rows, dtype=np.int64, count=len(rows))

    def _hop_dists(
        self, queries: np.ndarray, qq: np.ndarray, qs: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """*Squared* distances from ``queries[qs[j]]`` to stored row
        ``rows[j]``, pair by pair: the index's one distance helper.

        One gather + row-wise einsum per block, via the norm expansion
        ``||v-q||^2 = ||v||^2 - 2 v·q + ||q||^2`` with ``||v||^2`` cached
        (``qq`` holds the squared query norms), in blocks whose gathered
        vectors and queries stay within ``_HOP_BYTES``. A pair's distance
        does not depend on the pairs measured with it. Squared L2 is
        monotonic in true L2, so every traversal comparison is unchanged;
        public entry points take one square root at the API boundary.
        """
        sq = np.empty(rows.shape[0])
        step = max(1, _HOP_BYTES // (16 * self.dim))
        for start in range(0, rows.shape[0], step):
            r, q = rows[start : start + step], qs[start : start + step]
            block = sq[start : start + step]
            np.einsum(
                "ij,ij->i",
                self._vectors.take(r, axis=0),
                queries.take(q, axis=0),
                out=block,
            )
            block *= -2.0
            block += self._norms.take(r)
            block += qq.take(q)
        return sq

    def _lockstep_chunk(self, most: int, n_rows: int, cap: int) -> int:
        """Queries per lockstep pass: ``most``, fewer if needed for the pass
        to fit ``_VISITED_BYTES`` — per query, a 4-byte stamp per row and a
        beam ``cap`` plus one hop's ``_EXPAND * M0`` candidates wide."""
        per_query = 4 * n_rows + _SLOT_BYTES * (cap + _EXPAND * self.M0)
        return max(1, min(most, _VISITED_BYTES // per_query))

    # ------------------------------------------------------------------
    # Core search
    # ------------------------------------------------------------------
    def _descend(
        self,
        queries: np.ndarray,
        qq: np.ndarray,
        entry: int,
        top: int,
        stops: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Greedy descent of every query from row ``entry``, in lockstep:
        query ``i`` walks layers ``top`` down to ``stops[i] + 1``.

        On each layer a query moves to the nearest row its current row
        lists — the first listed on equal distances — while that is
        strictly nearer than where it stands. Returns ``(rows, squared
        distances)`` of where each query stops, its entry to the next
        layer down.
        """
        rows = np.full(len(queries), entry, dtype=np.int64)
        dists = self._hop_dists(queries, qq, np.arange(len(queries)), rows)
        for layer in range(top, int(stops.min(initial=top)), -1):
            adj = self._adj[layer]
            moving = np.flatnonzero(stops < layer)
            while moving.size:
                nbrs = adj[rows[moving]]
                qi, col = np.nonzero(nbrs >= 0)
                sq = np.full(nbrs.shape, np.inf)
                sq[qi, col] = self._hop_dists(queries, qq, moving[qi], nbrs[qi, col])
                best = sq.argmin(axis=1)
                best_sq = sq[np.arange(moving.size), best]
                moved = best_sq < dists[moving]
                moving = moving[moved]
                rows[moving] = nbrs[moved, best[moved]]
                dists[moving] = best_sq[moved]
        return rows, dists

    def _search_layer_batch(
        self,
        queries: np.ndarray,
        qq: np.ndarray,
        entry_rows: np.ndarray,
        entry_dists: np.ndarray,
        layer: int,
        efs: np.ndarray,
        caps: np.ndarray,
        sq_radius: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lockstep beam search at ``layer`` for a chunk of queries, query
        ``i`` from row ``entry_rows[i]`` at squared distance
        ``entry_dists[i]``. Returns ``(dists, rows, sizes)``: query ``i``'s
        beam is ``rows[i, :sizes[i]]`` at squared distances ``dists[i,
        :sizes[i]]``, sorted ascending by ``(dist, id)``; the rest of a line
        is ``inf`` / ``-1``.

        A beam is arrays: per query, members as (squared distance, row,
        expanded) in ``(dist, id)`` order. Each hop expands up to
        ``_EXPAND`` nearest unexpanded members of every query at once:
        their adjacency is one gather from the layer's padded matrix, a
        per-pass stamp matrix keeps the rows no hop of this query has seen
        (each once, however many of the hop's members list it), and one
        :meth:`_hop_dists` call measures them. The query then keeps the
        ``max(ef, min(cap, #in-radius))`` nearest of its members and the
        new rows, and stops when it has no unexpanded member. ``sq_radius``
        (squared) makes that a range query: the beam is ``ef`` wide while
        its worst lies outside the radius, and otherwise as large as the
        in-radius set it has found, up to ``cap``. ``-inf`` is plain k-NN —
        with ``cap = ef`` the textbook beam; ``inf`` is a plain beam of
        width ``cap``. Ties break on the external id (never the row), and
        ``_EXPAND`` counts per query, so a batch of N is N batches of one.
        """
        nq = len(entry_rows)
        adj = self._adj[layer]
        ids = np.asarray(self._id_of, dtype=np.int64)
        each = np.arange(nq)
        dists = np.array(entry_dists, dtype=np.float64).reshape(nq, 1)
        rows = np.array(entry_rows, dtype=np.int64).reshape(nq, 1)
        done = np.zeros((nq, 1), dtype=bool)  # expanded; padding counts as done
        sizes = np.ones(nq, dtype=np.int64)
        # stamp[i, row] != 0 once query i has measured row, read flat at
        # i * n1 + row. Its last column is always set: a -1 (padding) slot
        # reads the line before's, so it never counts as fresh. Tags only
        # grow, so a tag written this hop marks this hop's copy; they stay
        # below queries * rows * _EXPAND, within int32 by the chunk.
        n1 = len(ids) + 1
        stamp = np.zeros(nq * n1, dtype=np.int32)
        stamp[n1 - 1 :: n1] = 1
        stamp[each * n1 + rows[:, 0]] = 1
        tag = 1
        while True:
            # Up to _EXPAND nearest unexpanded members of every open query.
            open_ = ~done
            active = np.flatnonzero(open_.any(axis=1))
            if not active.size:
                break
            pick = open_[active]
            pick &= np.cumsum(pick, axis=1) <= _EXPAND
            qi, col = np.nonzero(pick)
            q_sel = active[qi]
            done[q_sel, col] = True
            cells = adj[rows[q_sel, col]] + (q_sel * n1)[:, None]
            cells = cells[stamp[cells] == 0]
            if not cells.size:
                continue
            tags = np.arange(tag + 1, tag + 1 + cells.size, dtype=np.int32)
            tag += cells.size
            stamp[cells] = tags
            cells = cells[stamp[cells] == tags]
            new_q, new_rows = np.divmod(cells, n1)
            sq = self._hop_dists(queries, qq, new_q, new_rows)
            # Drop what no beam can keep: past its worst member once it is
            # ef wide, and past the radius too once it is cap wide.
            worst = dists[each, sizes - 1]
            bound = np.where(
                sizes < efs,
                np.inf,
                np.where(sizes < caps, np.maximum(worst, sq_radius), worst),
            )
            keep = sq <= bound[new_q]
            if not keep.any():
                continue
            sq, new_rows, new_q = sq[keep], new_rows[keep], new_q[keep]
            # new_q is ascending (nonzero is row-major): one line per query.
            per_query = np.bincount(new_q, minlength=nq)
            qs = np.flatnonzero(per_query)
            counts = per_query[qs]
            line = (np.cumsum(per_query > 0) - 1)[new_q]
            slot = np.arange(new_q.size) - (np.cumsum(per_query) - per_query)[new_q]
            add_d = np.full((qs.size, counts.max()), np.inf)
            add_d[line, slot] = sq
            add_r = np.full(add_d.shape, -1, dtype=np.int64)
            add_r[line, slot] = new_rows
            cat_d = np.concatenate((dists[qs], add_d), axis=1)
            cat_r = np.concatenate((rows[qs], add_r), axis=1)
            cat_e = np.concatenate((done[qs], add_r < 0), axis=1)
            # Members are sorted, so a stable sort is a merge; a line with an
            # exact tie between distinct members re-sorts on the id.
            # Orders as flat indices into the (lines, cat width) blocks.
            line_start = (np.arange(qs.size) * cat_d.shape[1])[:, None]
            order = np.argsort(cat_d, axis=1, kind="stable") + line_start
            merged = cat_d.take(order)
            tie = (merged[:, 1:] == merged[:, :-1]) & (merged[:, 1:] < np.inf)
            tied = np.flatnonzero(tie.any(axis=1))
            if tied.size:
                redo = np.lexsort((ids[cat_r[tied]], cat_d[tied]))
                order[tied] = redo + line_start[tied]
                merged[tied] = cat_d.take(order[tied])
            cat_d = merged
            cat_r = cat_r.take(order)
            cat_e = cat_e.take(order)
            n = sizes[qs] + counts
            n_in = np.minimum((cat_d <= sq_radius).sum(axis=1), n)
            kept = np.minimum(n, np.maximum(efs[qs], np.minimum(caps[qs], n_in)))
            sizes[qs] = kept
            width = max(dists.shape[1], int(kept.max()))
            if width > dists.shape[1]:
                grow = width - dists.shape[1]
                dists = np.concatenate((dists, np.full((nq, grow), np.inf)), axis=1)
                rows = np.concatenate((rows, np.full((nq, grow), -1)), axis=1)
                done = np.concatenate((done, np.ones((nq, grow), dtype=bool)), axis=1)
            cut = np.arange(width) >= kept[:, None]
            dists[qs] = np.where(cut, np.inf, cat_d[:, :width])
            rows[qs] = np.where(cut, -1, cat_r[:, :width])
            done[qs] = cut | cat_e[:, :width]
        return dists, rows, sizes

    # ------------------------------------------------------------------
    # Neighbor selection (simple heuristic from the paper's Algorithm 4)
    # ------------------------------------------------------------------
    def _select_many(
        self, owners: np.ndarray, cands: np.ndarray, limit: int
    ) -> np.ndarray:
        """Choose up to ``limit`` neighbours for many nodes at once.

        Row ``g`` of ``cands`` holds the candidate rows of node
        ``owners[g]``, padded at the end with ``-1``. A node takes its
        candidates nearest first, by ``(squared distance, id)``, and keeps
        one unless an already kept one is nearer to it than the node is,
        until ``limit`` are kept; the skipped ones then fill what is left,
        nearest first. Returns a ``(nodes, limit)`` matrix: row ``g`` holds
        node ``g``'s kept rows in that order, then ``-1`` — an adjacency
        row. A new node's neighbours and an overfull list's prune are both
        this rule; it sorts, so the order of a row's candidates does not
        matter.

        Nodes run in ascending order of candidate count, in lockstep over
        candidate position: once per chunk whose bool ``closer`` block
        stays within ``_BLOCK_BYTES``, filled by float blocks whose gathered
        vectors and cross distances do too; every block is as wide as its
        widest node. The loop keeps candidates past ``limit``: the first
        ``limit`` kept are the same either way, and only they are returned.
        """
        ids = np.asarray(self._id_of, dtype=np.int64)
        counts = (cands >= 0).sum(axis=1)
        by_count = np.argsort(counts, kind="stable")
        counts = counts[by_count]
        kept = np.full((len(owners), limit), -1, dtype=np.int64)
        start = 0
        while start < len(by_count):
            # A chunk's last node is its widest.
            fits = np.arange(1, len(counts) - start + 1) * counts[start:] ** 2
            stop = start + max(1, int(np.count_nonzero(fits <= _BLOCK_BYTES)))
            width = max(1, int(counts[stop - 1]))
            nodes = by_count[start:stop]
            rows = np.full((len(nodes), width), -1, dtype=np.int64)
            closer = np.zeros((len(nodes), width, width), dtype=bool)
            step = max(1, _BLOCK_BYTES // (8 * width * (self.dim + width)))
            for sub in range(0, len(nodes), step):
                block = slice(sub, sub + step)
                wide = max(1, int(counts[start : stop][block][-1]))
                own = owners[nodes[block]]
                cand = cands[nodes[block], :wide]
                valid = cand >= 0
                safe = np.where(valid, cand, own[:, None])
                vecs = self._vectors.take(safe, axis=0)  # (nodes, wide, dim)
                norms = self._norms.take(safe)
                sq = np.matmul(vecs, self._vectors[own][:, :, None])[:, :, 0]
                sq *= -2.0
                sq += norms
                sq += self._norms.take(own)[:, None]
                np.maximum(sq, 0.0, out=sq)
                sq[~valid] = np.inf
                each = np.arange(len(own))[:, None]
                order = np.lexsort((ids.take(safe), sq))
                rows[block, :wide] = cand[each, order]
                sq, vecs, norms = sq[each, order], vecs[each, order], norms[each, order]
                cross = np.matmul(vecs, vecs.transpose(0, 2, 1))
                cross *= -2.0
                cross += norms[:, :, None]
                cross += norms[:, None, :]
                np.maximum(cross, 0.0, out=cross)
                # closer[g, p, j]: candidate j is nearer to candidate p than
                # node g is, so j, once kept, rules p out.
                np.less(cross, sq[:, :, None], out=closer[block, :wide, :wide])
            chosen = np.zeros(rows.shape, dtype=bool)
            for p in range(width):
                np.logical_not(
                    (chosen[:, :p] & closer[:, p, :p]).any(axis=1), out=chosen[:, p]
                )
            # Kept, then skipped, then padding; each group nearest first.
            rank = np.where(rows < 0, 2, np.where(chosen, 0, 1))
            pick = np.argsort(rank, axis=1, kind="stable")[:, :limit]
            kept[nodes, : pick.shape[1]] = np.take_along_axis(rows, pick, axis=1)
            start = stop
        return kept

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, item_id: int, vector: np.ndarray) -> None:
        """Insert a new element; if ``item_id`` exists, re-link with the new
        vector (dynamic update). A batch of one."""
        self.add_batch([item_id], np.asarray(vector, dtype=np.float64).reshape(1, -1))

    # ``update`` is the paper's dynamic-embedding path; add() handles both.
    update = add

    def add_batch(self, item_ids: np.ndarray, vectors: np.ndarray) -> None:
        """Insert or update many vectors.

        The whole batch is checked first — ids and rows align, every row
        has ``dim`` finite values — so a bad row leaves the index as it was.
        A repeated id keeps its last row, and each distinct new id draws
        its level once, in first-occurrence order: the rng use of one
        :meth:`add` per row. Ids then go through :meth:`_insert_batch` in
        the order of their last rows, ``_INSERT_CHUNK`` at a time (fewer once
        the rows outgrow the pass-state bound queries use).
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        item_ids = [int(i) for i in np.asarray(item_ids).ravel().tolist()]
        if len(item_ids) != len(vectors):
            raise ValueError("item_ids and vectors length mismatch")
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[-1]}")
        if not np.isfinite(vectors).all():
            raise ValueError("vectors must be finite")
        last = {iid: i for i, iid in enumerate(item_ids)}
        levels = {
            iid: int(-math.log(max(self._rng.random(), 1e-300)) * self._mL)
            for iid in last
            if iid not in self._row_of
        }
        # Rows needed: the live ones plus the new ids (an update keeps its row).
        self._grow(len(self._row_of) + len(levels))
        order = sorted(last.values())
        step = self._lockstep_chunk(
            _INSERT_CHUNK, len(self._id_of) + len(levels), self.ef_construction
        )
        for start in range(0, len(order), step):
            chunk = order[start : start + step]
            self._insert_batch([item_ids[i] for i in chunk], vectors[chunk], levels)

    def _insert_batch(
        self, item_ids: List[int], vectors: np.ndarray, levels: Dict[int, int]
    ) -> None:
        """Insert distinct ids in one pass (``levels`` holds the new ones').

        The ids already indexed are detached first, so the batch searches
        the graph of the nodes outside it, from an entry point repaired
        once among them. Then, top layer first, a member's candidates are
        the ``ef_construction`` nearest of what its lockstep beam finds and
        of the batch's other members on that layer — exact distances from
        the batch's own block, since members cannot reach each other
        through the graph. An update's neighbours before its detach are
        candidates too: detaching a whole batch thins the graph its beams
        walk, and these are what keep the node's old neighbourhood within
        reach. :meth:`_select_many` picks from the candidates and
        :meth:`_link` links back and prunes.
        """
        rows: List[int] = []
        for iid in item_ids:
            row = self._row_of.pop(iid, None)
            rows.append(self._alloc_row(iid, levels[iid]) if row is None else row)
        batch_rows = self._rows_array(rows)
        levels_of = np.asarray([self._levels[row] for row in rows])
        top = int(levels_of.max())
        # Per layer, the members' out-lists before the detach.
        prior = [self._adj[layer][batch_rows] for layer in range(top + 1)]
        self._detach(batch_rows)
        self._repair_entry()
        graph_top = self._max_level  # -1: nothing outside the batch
        for iid, row, vec in zip(item_ids, rows, vectors):
            self._vectors[row] = vec
            self._norms[row] = float(vec @ vec)
            self._row_of[iid] = row
        qq = self._norms[batch_rows]
        near = qq[:, None] + qq[None, :] - 2.0 * (vectors @ vectors.T)
        # A member is not its own candidate.
        np.fill_diagonal(near, np.inf)
        batch_rows_of = np.where(np.eye(len(rows), dtype=bool), -1, batch_rows)
        ids = np.asarray(self._id_of, dtype=np.int64)
        if self._entry is not None:
            start_r, start_d = self._descend(
                vectors, qq, self._row_of[self._entry], graph_top,
                np.minimum(levels_of, graph_top),
            )
        ef = self.ef_construction
        for layer in range(top, -1, -1):
            members = np.flatnonzero(levels_of >= layer)
            # Candidates per member, padded with (inf, -1): the batch's other
            # members on this layer, its beam's, an update's old list minus
            # both of those.
            pool_d = [near[np.ix_(members, members)]]
            pool_r = [batch_rows_of[np.ix_(members, members)]]
            old = prior[layer][members].astype(np.int64)
            old = old[:, : max(1, int((old >= 0).sum(axis=1).max()))]
            old[np.isin(old, batch_rows)] = -1
            if layer <= graph_top:
                efs = np.full(len(members), ef, dtype=np.int64)
                beam_d, beam_r, _ = self._search_layer_batch(
                    vectors[members], qq[members], start_r[members],
                    start_d[members], layer, efs, efs, -math.inf,
                )
                start_r[members], start_d[members] = beam_r[:, 0], beam_d[:, 0]
                pool_d.append(beam_d)
                pool_r.append(beam_r)
                old[(old[:, :, None] == beam_r[:, None, :]).any(axis=2)] = -1
            old_d = np.full(old.shape, np.inf)
            line, col = np.nonzero(old >= 0)
            old_d[line, col] = self._hop_dists(
                vectors, qq, members[line], old[line, col]
            )
            pool_d.append(old_d)
            pool_r.append(old)
            cand_d = np.concatenate(pool_d, axis=1)
            cand_r = np.concatenate(pool_r, axis=1)
            nearest = np.lexsort((ids[cand_r], cand_d))[:, :ef]
            limit = self.M0 if layer == 0 else self.M
            member_rows = batch_rows[members]
            chosen = self._select_many(
                member_rows, np.take_along_axis(cand_r, nearest, axis=1), limit
            )
            self._link(layer, member_rows, chosen)
        if top > graph_top:
            self._entry = item_ids[int(np.argmax(levels_of))]
            self._max_level = top

    def _link(self, layer: int, rows: np.ndarray, chosen: np.ndarray) -> None:
        """Give the new nodes ``rows`` their ``chosen`` out-lists at
        ``layer`` (``-1``-padded, ``limit`` wide), link each neighbour
        back, and prune every list that the back-links push over its limit.

        Back-links append in loop order — by new node, then by position in
        its chosen list — and one is skipped exactly when the neighbour is
        a new node that chose this one too. A list that fits takes its
        back-links at ``degree + running count``, all in one assignment;
        an overfull one goes to :meth:`_select_many` as its row plus its
        overflow.
        """
        adj = self._adj[layer]
        limit = adj.shape[1]
        adj[rows] = chosen
        line, col = np.nonzero(chosen >= 0)
        src, dst = rows[line], chosen[line, col]
        member = np.full(len(self._id_of), -1, dtype=np.int64)
        member[rows] = np.arange(len(rows))
        chose_back = member[dst] >= 0
        pairs = np.flatnonzero(chose_back)
        chose_back[pairs] = (chosen[member[dst[pairs]]] == src[pairs, None]).any(axis=1)
        src, dst = src[~chose_back], dst[~chose_back]
        # Slot: the list's degree plus the back-links before this one.
        by_dst = np.argsort(dst, kind="stable")
        grouped = dst[by_dst]
        earlier = np.empty_like(by_dst)
        earlier[by_dst] = np.arange(by_dst.size) - np.searchsorted(grouped, grouped)
        slot = (adj[dst] >= 0).sum(axis=1) + earlier
        fits = slot < limit
        adj[dst[fits], slot[fits]] = src[fits]
        if fits.all():
            return
        full, at = np.unique(dst[~fits], return_inverse=True)
        extra = slot[~fits] - limit
        cands = np.full((full.size, limit + int(extra.max()) + 1), -1, dtype=np.int64)
        cands[:, :limit] = adj[full]
        cands[at, limit + extra] = src[~fits]
        adj[full] = self._select_many(full, cands, limit)

    def _detach(self, rows: np.ndarray) -> None:
        """Remove every edge into or out of ``rows``.

        Per layer, one scan of the rows that have a list there finds every
        list that names one of ``rows`` (a boolean table over rows, read
        through the matrix); those entries go and the lists close up, in
        order. Then ``rows``' own lists are cleared.
        """
        used = len(self._id_of)
        marked = np.zeros(used + 1, dtype=bool)  # the last slot: -1 padding
        marked[rows] = True
        top = max(self._levels[row] for row in rows.tolist())
        for adj in self._adj[: top + 1]:
            scan = np.flatnonzero(adj[:used, 0] >= 0)  # lists are packed left
            lists = scan[marked[adj[scan]].any(axis=1)]
            if lists.size:
                hit = marked[adj[lists]]
                order = np.argsort(hit, axis=1, kind="stable")  # kept first
                packed = np.take_along_axis(adj[lists], order, axis=1)
                packed[np.take_along_axis(hit, order, axis=1)] = -1
                adj[lists] = packed
            adj[rows] = -1

    def _repair_entry(self) -> None:
        """Re-pick the entry point once its id is no longer mapped: the
        first id, in :attr:`ids` order, on the highest level left."""
        if self._entry is None or self._entry in self._row_of:
            return
        self._entry, self._max_level = None, -1
        for oid, orow in self._row_of.items():
            if self._levels[orow] > self._max_level:
                self._entry, self._max_level = oid, self._levels[orow]

    def remove(self, item_id: int) -> None:
        """Delete an element entirely."""
        item_id = int(item_id)
        if item_id not in self._row_of:
            raise KeyError(item_id)
        self._detach(self._rows_array([self._row_of[item_id]]))
        self._release_row(item_id)
        self._repair_entry()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query(
        self,
        queries: np.ndarray,
        k: int,
        ef: Optional[int],
        exclude: Optional[np.ndarray],
        radius: Optional[float],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The one query path: per query, up to ``k`` ``(ids, distances)``
        ascending, off the lockstep layer-0 beam.

        k-NN (``radius=None``) needs a beam of ``max(ef, k)``. A range query
        keeps the beam at ``ef`` while it is still outside the radius and
        lets it grow to ``k`` over the in-radius set, so its cost follows
        the number of neighbours it returns instead of ``k``; of its up to
        ``k`` results every one within ``radius`` is kept, and the caller
        filters the rest. ``exclude[i]`` (ids, ``-1`` = none) drops one id
        from query ``i``'s results; that query's beam is widened by one slot
        so the exclusion cannot under-fill the ``k`` requested results.

        The layer-0 beams run in *lockstep*: every hop expands up to
        ``_EXPAND`` members of every still-active query, gathers their
        adjacency rows from one padded matrix, and scores the fresh ones
        in a single gather + einsum call — amortizing the per-hop numpy
        dispatch overhead over the whole batch. Queries are independent,
        so lockstep is pure scheduling: a batch of N is N batches of one.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nq = queries.shape[0]
        if exclude is not None:
            exclude = np.asarray(exclude).ravel()
            if exclude.shape[0] != nq:
                raise ValueError("exclude and queries length mismatch")
        if self._entry is None or nq == 0:
            return [(np.empty(0, dtype=np.int64), np.empty(0)) for _ in range(nq)]
        if queries.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {queries.shape[1]}")
        width = int(ef if ef is not None else EF_SEARCH)
        if radius is None:
            width = cap = max(width, k)
            sq_radius = -math.inf
        else:
            cap = max(width, k)
            # Traversal compares squared distances; the slack keeps a point the
            # caller's ``d <= radius`` test accepts from rounding to "outside".
            sq_radius = radius * radius * (1.0 + 1e-9)
        efs = np.full(nq, width, dtype=np.int64)
        if exclude is not None:
            # The beam must hold k survivors plus the excluded id — only
            # for queries that exclude one.
            efs[exclude >= 0] += 1
        caps = efs + (cap - width)
        qq = np.einsum("ij,ij->i", queries, queries)
        entry_row = self._row_of[self._entry]
        row_ids = np.asarray(self._id_of, dtype=np.int64)
        chunk = self._lockstep_chunk(256, len(self._id_of), int(caps.max()))
        found: List[Tuple[np.ndarray, np.ndarray]] = []
        for start in range(0, nq, chunk):
            stop = min(nq, start + chunk)
            entry_rows, entry_dists = self._descend(
                queries[start:stop], qq[start:stop], entry_row, self._max_level,
                np.zeros(stop - start, dtype=np.int64),
            )
            sq, rows, sizes = self._search_layer_batch(
                queries[start:stop], qq[start:stop], entry_rows, entry_dists, 0,
                efs[start:stop], caps[start:stop], sq_radius,
            )
            ids = row_ids[rows]
            keep = np.arange(rows.shape[1]) < sizes[:, None]
            if exclude is not None:
                excl = exclude[start:stop, None]
                keep &= (ids != excl) | (excl < 0)
            keep &= np.cumsum(keep, axis=1) <= k
            # Traversal works in squared L2; convert once, here.
            dists = np.sqrt(np.maximum(sq, 0.0))
            found.extend((i[m], d[m]) for i, d, m in zip(ids, dists, keep))
        return found

    def search(
        self, query: np.ndarray, k: int, ef: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN: up to ``k`` ``(ids, distances)`` ascending."""
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        return self._query(query, int(k), ef, None, None)[0]

    def neighbors_within_batch(
        self,
        queries: np.ndarray,
        radius: float,
        exclude: Optional[np.ndarray] = None,
        max_neighbors: int = 512,
    ) -> RangeResult:
        """Batched range query with the brute-force backend's signature and
        result type.

        Reads as one ``(ids, dists)`` pair per query: the nearest
        ``max_neighbors`` (paper's ``neighbormax``-scale bound) of the points
        the radius-aware beam of :meth:`_query` found within
        ``radius``, ascending; ``exclude[i]`` (if given, ``-1`` = none)
        removes one id from query ``i``'s results. The whole scorer sweep
        shares the lockstep beam's vectorized distance calls. The beam
        leaves every row measured and sorted, so rows stay readable after
        later writes to the index.
        """
        within = []
        for ids, dists in self._query(queries, int(max_neighbors), None, exclude, radius):
            keep = dists <= radius
            within.append((ids[keep], dists[keep]))
        sizes = [ids.size for ids, _ in within]
        return RangeResult(
            np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            np.concatenate([np.empty(0, dtype=np.int64)] + [ids for ids, _ in within]),
            within.__getitem__,
        )

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Exact snapshot: everything later behaviour depends on.

        The row layout (free rows and their reuse order included, so a later
        insert lands in the row the original would use), the live rows in id
        order (it backs :attr:`ids` and the entry-point repair), levels,
        per-layer out-lists in list order (``degrees`` per row and layer up
        to its level, ``edges`` concatenated in that order), the entry
        point, the level-draw rng and the construction parameters; the
        padded matrices and norms are derived on load.
        :func:`repro.resilience.state.save_state` takes it.
        """
        n = len(self._id_of)
        mats = [mat[:n] for mat in self._adj] or [np.empty((n, 0), dtype=np.int32)]
        levels = np.asarray(self._levels, dtype=np.int64)
        on = np.arange(len(mats)) <= levels[:, None]  # (row, layer) lists
        degrees = np.stack([(mat >= 0).sum(axis=1) for mat in mats], axis=1)
        edges = np.concatenate(mats, axis=1)  # row, then layer, then position
        return {
            "dim": self.dim,
            "M": self.M,
            "ef_construction": self.ef_construction,
            "vectors": self._vectors[:n].copy(),
            "row_ids": np.asarray(self._id_of, dtype=np.int64),
            "live_rows": np.asarray(list(self._row_of.values()), dtype=np.int64),
            "free_rows": np.asarray(self._free, dtype=np.int64),
            "levels": levels,
            "degrees": degrees[on].astype(np.int64),
            "edges": edges[edges >= 0].astype(np.int64),
            "entry": self._entry,
            "max_level": self._max_level,
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, replacing the contents
        (construction parameters included; ``dim`` must match)."""
        vectors = np.asarray(state["vectors"], dtype=np.float64)
        row_ids = np.asarray(state["row_ids"], dtype=np.int64).tolist()
        levels = np.asarray(state["levels"], dtype=np.int64)
        degrees = np.asarray(state["degrees"], dtype=np.int64)
        edges = np.asarray(state["edges"], dtype=np.int64)
        n = len(row_ids)
        if int(state["dim"]) != self.dim or vectors.shape != (n, self.dim):
            raise ValueError("vector snapshot does not match index dim")
        shape = (len(levels), len(degrees), int(degrees.sum()))
        if shape != (n, n + int(levels.sum()), len(edges)):
            raise ValueError("snapshot rows, levels and out-lists do not align")
        self.M = int(state["M"])
        self.M0 = 2 * self.M
        self._mL = 1.0 / math.log(self.M)
        self.ef_construction = int(state["ef_construction"])
        self._id_of = []  # the old contents go: growing carries nothing over
        self._adj = []
        self._grow(n)
        self._add_layers(int(levels.max(initial=-1)))
        self._vectors[:n] = vectors
        for row in range(n):  # the expression insertion cached, bit for bit
            self._norms[row] = float(vectors[row] @ vectors[row])
        # List k is (row, layer); edge e sits at slot ``pos[e]`` of list k.
        per_row = levels + 1
        list_row = np.repeat(np.arange(n), per_row)
        list_layer = np.arange(len(list_row)) - np.repeat(
            np.cumsum(per_row) - per_row, per_row
        )
        of_edge = np.repeat(np.arange(len(degrees)), degrees)
        pos = np.arange(len(edges)) - np.repeat(np.cumsum(degrees) - degrees, degrees)
        for layer, mat in enumerate(self._adj):
            on = list_layer[of_edge] == layer
            if (pos[on] >= mat.shape[1]).any():
                raise ValueError("snapshot out-list longer than its layer allows")
            mat[list_row[of_edge[on]], pos[on]] = edges[on]
        self._id_of = row_ids
        self._levels = levels.tolist()
        live = np.asarray(state["live_rows"], dtype=np.int64).tolist()
        self._row_of = {row_ids[row]: row for row in live}
        self._free = np.asarray(state["free_rows"], dtype=np.int64).tolist()
        entry = state["entry"]
        self._entry = None if entry is None else int(entry)
        self._max_level = int(state["max_level"])
        self._rng.bit_generator.state = state["rng"]

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_symmetric_reachability(self) -> float:
        """Fraction of layer-0 edges that are bidirectional (diagnostic)."""
        adj = self._adj[0] if self._adj else np.empty((0, 0), dtype=np.int32)
        live = self._rows_array(list(self._row_of.values()))
        lists = adj[live]
        src = np.broadcast_to(live[:, None], lists.shape)[lists >= 0]
        dst = lists[lists >= 0]
        if not dst.size:
            return 1.0
        return int((adj[dst] == src[:, None]).any(axis=1).sum()) / dst.size

    def validate_invariants(self) -> None:
        """Raise ``AssertionError`` if internal bookkeeping is inconsistent.

        Checks the id↔row bijection, the free rows, the entry point's level,
        and the padded adjacency matrices: as many rows as the vector
        matrix, ``M0`` / ``M`` wide (the degree bound), ``-1`` only after a
        row's entries, no duplicate entry, targets live and on the layer,
        and only ``-1`` on free and unused rows and on layers above a row's
        level. Intended for tests; O(edges).
        """
        live_rows = set(self._row_of.values())
        assert len(live_rows) == len(self._row_of), "row map is not injective"
        for iid, row in self._row_of.items():
            assert 0 <= row < len(self._id_of), f"row {row} out of range"
            assert self._id_of[row] == iid, f"id_of mismatch at row {row}"
        for row in self._free:
            assert self._id_of[row] == _FREE, "free row still has an id"
            assert row not in live_rows, "free row is also live"
        if self._entry is not None:
            assert self._entry in self._row_of, "entry id not indexed"
            entry_row = self._row_of[self._entry]
            assert self._levels[entry_row] == self._max_level, (
                "entry level != max_level"
            )
        assert len(self._adj) > self._max_level, "missing adjacency matrix"
        n = len(self._id_of)
        levels = np.asarray(self._levels, dtype=np.int64)
        live = np.zeros(n + 1, dtype=bool)  # the last slot: -1 padding
        live[list(live_rows)] = True
        for layer, mat in enumerate(self._adj):
            assert mat.shape == (
                self._vectors.shape[0], self.M0 if layer == 0 else self.M
            ), f"layer {layer} matrix shape {mat.shape}"
            lists = mat[:n]
            valid = lists >= 0
            assert not (valid[:, 1:] & ~valid[:, :-1]).any(), (
                f"-1 before a list's end at layer {layer}"
            )
            on = live[:n] & (levels >= layer)
            assert not valid[~on].any() and (mat[n:] == -1).all(), (
                f"edges on a free or unused row or above its level at layer {layer}"
            )
            ordered = np.sort(lists, axis=1)
            twins = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
            assert not twins.any(), "duplicate out-edge"
            targets = lists[valid]
            assert live[targets].all(), "edge to dead row"
            assert (levels[targets] >= layer).all(), "edge above target level"
