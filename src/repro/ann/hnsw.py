"""Hierarchical Navigable Small World (HNSW) index, from scratch.

Implements Malkov & Yashunin (2018) — the library the paper adopts for its
graph-based importance sampling (§4.1): "we use the HNSW library for its
fast index construction and support for dynamic sample updates".

Structure: every element gets a random top layer ``l`` drawn geometrically
(``l = floor(-ln(U) * mL)``, ``mL = 1/ln(M)``). Each layer is a proximity
graph; search greedily descends from the global entry point through upper
layers, then runs a beam search (width ``ef``) at layer 0.

Storage layout: vectors live in one contiguous ``(capacity, dim)`` float64
matrix with cached squared norms, and adjacency lists hold *row* indices
into that matrix — every hop's distance block is one fancy-index + GEMV
(``||v-q||^2 = ||v||^2 - 2 v·q + ||q||^2`` with ``||v||^2`` precomputed)
instead of re-stacking per-node vectors. An id→row map keeps the public
API keyed by stable external ids. Reverse-edge sets mirror the forward
lists, so detaching a node on dynamic ``update``/``remove`` is O(degree).

:meth:`HNSWIndex.reorder` relabels rows — BFS from the entry point or by
descending layer-0 degree — so graph-adjacent nodes become memory-adjacent
(the relabeling trick from *Graph Reordering for Cache-Efficient Near
Neighbor Search*). Search results are unchanged by construction: every
traversal orders ties by ``(distance, external id)``, never by row.

Dynamic updates (embeddings drift as the model trains) are supported by
re-linking: ``update`` detaches the node from all its neighbors and
re-inserts it with its new vector, preserving its id.

Queries have one path: a single ``search`` / ``neighbors_within`` is a batch
of one over the lockstep layer-0 beam. Range queries (``neighbors_within*``,
the scorer's only question) run that beam with a radius: ``ef_search`` wide
while the beam's worst member is outside the radius, then as large as the
in-radius set it finds (see :meth:`HNSWIndex._search_layer_batch`), so the
nodes visited follow the size of the answer rather than ``max_neighbors``.
Insertion runs on the same beam: :meth:`HNSWIndex.add_batch` searches a whole
batch in lockstep, adds the batch's other members as exact candidates (and an
update's old neighbours), and one kernel, :meth:`HNSWIndex._select_many`,
picks every new node's neighbours and prunes every list the back-links
overfill; ``add`` is a batch of one.
:meth:`HNSWIndex.state_dict` snapshots everything later behaviour depends on,
level-draw rng included, so a restored index continues exactly as the original.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ann.range_result import RangeResult
from repro.utils.rng import RngLike, resolve_rng

__all__ = ["HNSWIndex"]

_FREE = -1  # sentinel in _id_of for rows on the free list
_INSERT_CHUNK = 64  # most ids per insertion pass: bounds its B×B distance block
# Bytes of one lockstep pass's (queries, rows) visited matrix.
_VISITED_BYTES = 32 << 20
# Gathered vectors + cross distances per _select_many block.
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
        Beam width during insertion.
    ef_search:
        Default beam width during queries (can be overridden per call).
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
        ef_search: int = 50,
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
        self.ef_search = int(ef_search)
        self._mL = 1.0 / math.log(M)
        self._rng = resolve_rng(rng)
        # Flat storage: row-indexed vector matrix + cached squared norms.
        self._vectors = np.empty((int(capacity), self.dim), dtype=np.float64)
        self._norms = np.empty(int(capacity), dtype=np.float64)
        self._levels: List[int] = []  # row -> top layer
        self._out: List[List[List[int]]] = []  # row -> layer -> neighbor rows
        self._in: List[List[Set[int]]] = []  # row -> layer -> rows linking here
        self._id_of: List[int] = []  # row -> external id (_FREE when vacant)
        self._row_of: Dict[int, int] = {}  # external id -> row
        self._free: List[int] = []  # vacated rows available for reuse
        self._entry: Optional[int] = None  # external id of the entry point
        self._max_level = -1
        # (row, layer) -> adjacency as an int64 array. A mutation drops
        # exactly the lists it changed, so queries and the insertion
        # searches between mutations materialize each list once.
        self._adj_cache: Dict[Tuple[int, int], np.ndarray] = {}

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

    def vector(self, item_id: int) -> np.ndarray:
        """Copy of a stored vector."""
        return self._vectors[self._row_of[int(item_id)]].copy()

    def node_level(self, item_id: int) -> int:
        """Top layer assigned to a node."""
        return self._levels[self._row_of[int(item_id)]]

    def degree(self, item_id: int, layer: int = 0) -> int:
        """Out-degree of a node at ``layer`` (0 = base proximity graph)."""
        row = self._row_of[int(item_id)]
        if layer > self._levels[row]:
            return 0
        return len(self._out[row][layer])

    def graph_neighbors(self, item_id: int, layer: int = 0) -> List[int]:
        """Adjacency list of a node at ``layer`` (copies, safe to mutate)."""
        row = self._row_of[int(item_id)]
        if layer > self._levels[row]:
            return []
        return [self._id_of[r] for r in self._out[row][layer]]

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

    def _alloc_row(self, item_id: int, level: int) -> int:
        """An edgeless row for ``item_id`` (reusing freed rows first); the
        caller stores its vector and maps the id to it."""
        if self._free:
            row = self._free.pop()
            self._id_of[row] = item_id
            self._levels[row] = level
            self._out[row] = [[] for _ in range(level + 1)]
            self._in[row] = [set() for _ in range(level + 1)]
        else:
            row = len(self._id_of)
            if row >= self._vectors.shape[0]:
                self._grow(row + 1)
            self._id_of.append(item_id)
            self._levels.append(level)
            self._out.append([[] for _ in range(level + 1)])
            self._in.append([set() for _ in range(level + 1)])
        return row

    def _release_row(self, item_id: int) -> None:
        row = self._row_of.pop(item_id)
        self._id_of[row] = _FREE
        self._free.append(row)

    # ------------------------------------------------------------------
    # Distance helpers
    # ------------------------------------------------------------------
    def _dists_rows(
        self, query: np.ndarray, rows: np.ndarray, qq: float
    ) -> np.ndarray:
        """*Squared* distances from ``query`` to stored rows — the hot path.

        One fancy-index + GEMV per call, via the norm expansion
        ``||v-q||^2 = ||v||^2 - 2 v·q + ||q||^2`` with ``||v||^2`` cached
        (``qq`` is the precomputed squared query norm). Squared L2 is
        monotonic in true L2, so every traversal comparison is unchanged;
        public entry points take one square root at the API boundary.
        """
        sq = self._vectors.take(rows, axis=0).dot(query)
        sq *= -2.0
        sq += self._norms.take(rows)
        sq += qq
        return sq

    @staticmethod
    def _rows_array(rows: Sequence[int]) -> np.ndarray:
        return np.fromiter(rows, dtype=np.int64, count=len(rows))

    @staticmethod
    def _lockstep_chunk(most: int, n_rows: int) -> int:
        """Queries per lockstep pass: ``most``, fewer if needed for the
        ``(queries, n_rows)`` visited matrix to fit ``_VISITED_BYTES``."""
        return max(1, min(most, _VISITED_BYTES // max(n_rows, 1)))

    @staticmethod
    def _padded(lists: List[List[int]]) -> np.ndarray:
        """Row lists as one int64 matrix, each padded at the end with -1."""
        out = np.full((len(lists), max(1, *map(len, lists))), -1, dtype=np.int64)
        for g, rows in enumerate(lists):
            out[g, : len(rows)] = rows
        return out

    def _adj_rows(self, row: int, layer: int) -> np.ndarray:
        """Adjacency of ``(row, layer)`` as a cached int64 row array.

        Every write to ``_out[row][layer]`` pops that entry (``reorder``
        relabels all rows and clears the lot), so an entry always equals
        its list — :meth:`validate_invariants` checks it — and a list is
        rebuilt only after it changed, not on every hop.
        """
        key = (row, layer)
        arr = self._adj_cache.get(key)
        if arr is None:
            arr = np.array(self._out[row][layer], dtype=np.int64)
            self._adj_cache[key] = arr
        return arr

    # ------------------------------------------------------------------
    # Core search
    # ------------------------------------------------------------------
    def _greedy_descend(
        self, query: np.ndarray, qq: float, start: int, top: int, stop: int
    ) -> Tuple[int, float]:
        """Greedy single-entry search from layer ``top`` down to ``stop+1``.

        Returns ``(row, squared distance)`` of the closest node found, used
        as the entry point for the next lower layer.
        """
        current = start
        cur_dist = float(
            self._dists_rows(query, np.asarray([current], dtype=np.int64), qq)[0]
        )
        for layer in range(top, stop, -1):
            improved = True
            while improved:
                improved = False
                neigh = self._adj_rows(current, layer)
                if not neigh.size:
                    continue
                dists = self._dists_rows(query, neigh, qq)
                best = int(np.argmin(dists))
                if dists[best] < cur_dist:
                    cur_dist = float(dists[best])
                    current = int(neigh[best])
                    improved = True
        return current, cur_dist

    def _search_layer_batch(
        self,
        queries: np.ndarray,
        qq: np.ndarray,
        entries: List[Tuple[int, float]],
        layer: int,
        efs: np.ndarray,
        caps: np.ndarray,
        sq_radius: float,
    ) -> List[List[Tuple[float, int, int]]]:
        """Lockstep beam search at ``layer`` for a chunk of queries, each
        from its ``(row, squared dist)`` entry; returns one beam per query
        as ``(squared dist, id, row)`` triples sorted ascending by
        ``(dist, id)``.

        A query's beam holds ``ef`` members and its search stops when the
        nearest unexpanded candidate is farther than the beam's worst.
        ``sq_radius`` (squared) makes that a range query: a member inside
        the radius is never evicted for width, only once the beam reaches
        ``cap``, so the beam is ``ef`` wide while its worst lies outside the
        radius and otherwise as large as the in-radius set it has found.
        Below ``cap`` every in-radius candidate is still a member, hence no
        farther than the worst, hence expanded: the stop rule reads
        ``max(worst, radius)``. ``-inf`` is plain k-NN — with ``cap = ef``
        the textbook beam insertion runs; ``inf`` is a plain beam of width
        ``cap``. Heap ties break on the external id (never the row), so
        results are invariant under :meth:`reorder`.
        """
        nq = queries.shape[0]
        id_of = self._id_of
        push, pop = heapq.heappush, heapq.heappop
        ef_of = efs.tolist()
        cap_of = caps.tolist()
        visited = np.zeros((nq, len(id_of)), dtype=bool)
        candidates: List[List[Tuple[float, int, int]]] = []
        results: List[List[Tuple[float, int, int]]] = []
        for i, (row, d) in enumerate(entries):
            nid = id_of[row]
            visited[i, row] = True
            candidates.append([(d, nid, row)])
            results.append([(-d, nid, row)])
        bound_of = np.empty(nq)
        active = list(range(nq))
        while active:
            popped_q: List[int] = []
            popped_rows: List[int] = []
            for i in active:
                cand = candidates[i]
                if not cand:
                    continue
                d, _, row = pop(cand)
                res = results[i]
                if len(res) >= ef_of[i] and d > -res[0][0]:
                    continue
                popped_q.append(i)
                popped_rows.append(row)
            active = popped_q
            if not popped_q:
                break
            adjs = [self._adj_rows(r, layer) for r in popped_rows]
            lens = [a.size for a in adjs]
            if not any(lens):
                continue
            rows_all = np.concatenate(adjs)
            qarr = np.repeat(np.asarray(popped_q, dtype=np.int64), lens)
            fresh = ~visited[qarr, rows_all]
            if not fresh.any():
                continue
            rows_f = rows_all[fresh]
            q_f = qarr[fresh]
            visited[q_f, rows_f] = True
            gathered = self._vectors[rows_f]
            sq = self._norms[rows_f] - 2.0 * np.einsum(
                "ij,ij->i", gathered, queries[q_f]
            )
            sq += qq[q_f]
            # Bulk drop of what no beam can admit (a superset of the exact
            # per-item rule below, which settles ties with the worst).
            for i in popped_q:
                res = results[i]
                size = len(res)
                if size < ef_of[i]:
                    bound_of[i] = np.inf
                elif size < cap_of[i]:
                    bound_of[i] = max(-res[0][0], sq_radius)
                else:
                    bound_of[i] = -res[0][0]
            keep = sq <= bound_of[q_f]
            if not keep.all():
                rows_f = rows_f[keep]
                q_f = q_f[keep]
                sq = sq[keep]
            for i, row, nd in zip(q_f.tolist(), rows_f.tolist(), sq.tolist()):
                res = results[i]
                size = len(res)
                if (
                    size < ef_of[i]
                    or nd < -res[0][0]
                    or (nd <= sq_radius and size < cap_of[i])
                ):
                    nid = id_of[row]
                    push(candidates[i], (nd, nid, row))
                    push(res, (-nd, nid, row))
                    if size >= ef_of[i] and (
                        size >= cap_of[i] or -res[0][0] > sq_radius
                    ):
                        pop(res)
        return [sorted((-d, i, r) for d, i, r in res) for res in results]

    # ------------------------------------------------------------------
    # Neighbor selection (simple heuristic from the paper's Algorithm 4)
    # ------------------------------------------------------------------
    def _select_many(
        self, owners: np.ndarray, cands: np.ndarray, limit: int
    ) -> List[List[int]]:
        """Choose up to ``limit`` neighbours for many nodes at once.

        Row ``g`` of ``cands`` holds the candidate rows of node
        ``owners[g]``, padded at the end with ``-1``. A node takes its
        candidates nearest first, by ``(squared distance, id)``, and keeps
        one unless an already kept one is nearer to it than the node is,
        until ``limit`` are kept; the skipped ones then fill what is left,
        nearest first. Returns each node's kept rows in that order. A new
        node's neighbours and an overfull list's prune are both this rule.

        Nodes run in lockstep over candidate position, in blocks whose
        gathered vectors and cross distances stay within ``_BLOCK_BYTES``.
        The loop keeps candidates past ``limit``: the first ``limit`` kept
        are the same either way, and only they are returned.
        """
        ids = np.asarray(self._id_of, dtype=np.int64)
        width = cands.shape[1]
        step = max(1, _BLOCK_BYTES // (8 * width * (self.dim + width)))
        kept: List[List[int]] = []
        for start in range(0, len(owners), step):
            own = owners[start : start + step]
            rows = cands[start : start + step]
            rows = rows[:, : max(1, int((rows >= 0).sum(axis=1).max()))]
            valid = rows >= 0
            safe = np.where(valid, rows, own[:, None])
            vecs = self._vectors.take(safe, axis=0)  # (nodes, width, dim)
            norms = self._norms.take(safe)
            sq = np.matmul(vecs, self._vectors.take(own, axis=0)[:, :, None])[:, :, 0]
            sq *= -2.0
            sq += norms
            sq += self._norms.take(own)[:, None]
            np.maximum(sq, 0.0, out=sq)
            sq[~valid] = np.inf
            each = np.arange(len(own))[:, None]
            order = np.lexsort((ids.take(safe), sq))
            rows, sq = rows[each, order], sq[each, order]
            vecs, norms = vecs[each, order], norms[each, order]
            cross = np.matmul(vecs, vecs.transpose(0, 2, 1))
            cross *= -2.0
            cross += norms[:, :, None]
            cross += norms[:, None, :]
            np.maximum(cross, 0.0, out=cross)
            # closer[g, p, j]: candidate j is nearer to candidate p than
            # node g is, so j, once kept, rules p out.
            closer = cross < sq[:, :, None]
            chosen = np.zeros(rows.shape, dtype=bool)
            for p in range(rows.shape[1]):
                np.logical_not(
                    (chosen[:, :p] & closer[:, p, :p]).any(axis=1), out=chosen[:, p]
                )
            # Kept, then skipped, then padding; each group nearest first.
            rank = np.where(rows < 0, 2, np.where(chosen, 0, 1))
            pick = np.argsort(rank, axis=1, kind="stable")[:, :limit]
            kept.extend(
                [r for r in picked if r >= 0] for picked in rows[each, pick].tolist()
            )
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
        the rows outgrow the visited-matrix bound queries use).
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
        step = self._lockstep_chunk(_INSERT_CHUNK, len(self._id_of) + len(levels))
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
        prior: List[List[List[int]]] = []  # per member, out-lists before the detach
        for iid in item_ids:
            row = self._row_of.pop(iid, None)
            if row is None:
                row = self._alloc_row(iid, levels[iid])
            prior.append(list(self._out[row]))  # _unlink swaps in fresh lists
            self._unlink(row)
            rows.append(row)
        self._repair_entry()
        graph_top = self._max_level  # -1: nothing outside the batch
        entry = None if self._entry is None else self._row_of[self._entry]
        for iid, row, vec in zip(item_ids, rows, vectors):
            self._vectors[row] = vec
            self._norms[row] = float(vec @ vec)
            self._row_of[iid] = row
        levels_of = [self._levels[row] for row in rows]
        qq = self._norms[rows]
        near = (qq[:, None] + qq[None, :] - 2.0 * (vectors @ vectors.T)).tolist()
        starts: List[Tuple[int, float]] = []
        if entry is not None:
            starts = [
                self._greedy_descend(vec, float(q), entry, graph_top, min(lv, graph_top))
                for vec, q, lv in zip(vectors, qq, levels_of)
            ]
        ef = self.ef_construction
        top = max(levels_of)
        for layer in range(top, -1, -1):
            members = [i for i, lv in enumerate(levels_of) if lv >= layer]
            beams: List[List[Tuple[float, int, int]]] = [[] for _ in members]
            if layer <= graph_top:
                efs = np.full(len(members), ef, dtype=np.int64)
                beams = self._search_layer_batch(
                    vectors[members], qq[members], [starts[i] for i in members],
                    layer, efs, efs, -math.inf,
                )
                for i, beam in zip(members, beams):
                    starts[i] = (beam[0][2], beam[0][0])
            pools = []
            for i, beam in zip(members, beams):
                dist = near[i]
                pool = beam + [(dist[j], item_ids[j], rows[j]) for j in members if j != i]
                seen = {r for _, _, r in pool}
                old = [r for r in prior[i][layer] if r not in seen]
                if old:
                    sq = self._dists_rows(vectors[i], self._rows_array(old), qq[i])
                    pool += zip(sq.tolist(), (self._id_of[r] for r in old), old)
                pools.append([row for _, _, row in sorted(pool)[:ef]])
            member_rows = [rows[i] for i in members]
            limit = self.M0 if layer == 0 else self.M
            chosen = self._select_many(
                self._rows_array(member_rows), self._padded(pools), limit
            )
            self._link(layer, member_rows, chosen)
        if top > graph_top:
            self._entry = item_ids[levels_of.index(top)]
            self._max_level = top

    def _link(self, layer: int, rows: List[int], chosen: List[List[int]]) -> None:
        """Give the new nodes ``rows`` their ``chosen`` out-lists at
        ``layer``, link each neighbour back, and prune every list that the
        back-links push over its limit."""
        limit = self.M0 if layer == 0 else self.M
        out, into, cache = self._out, self._in, self._adj_cache
        for row, sel in zip(rows, chosen):
            out[row][layer] = sel
            cache.pop((row, layer), None)
            for other in sel:
                into[other][layer].add(row)
        overfull: Dict[int, None] = {}
        for row, sel in zip(rows, chosen):
            back = into[row][layer]
            for other in sel:
                if other in back:  # a batch member that chose ``row`` too
                    continue
                adj = out[other][layer]
                adj.append(row)
                back.add(other)
                cache.pop((other, layer), None)
                if len(adj) > limit:
                    overfull[other] = None
        if not overfull:
            return
        full = list(overfull)
        lists = [out[row][layer] for row in full]
        pruned = self._select_many(self._rows_array(full), self._padded(lists), limit)
        for row, adj, kept in zip(full, lists, pruned):
            for other in set(adj).difference(kept):
                into[other][layer].discard(row)
            out[row][layer] = kept
            cache.pop((row, layer), None)

    def _unlink(self, row: int) -> None:
        """Remove every edge touching ``row``.

        O(degree) via the reverse-edge sets: only the node's own out-edges
        and the nodes that link *to* it are visited, never the whole graph.
        """
        for layer in range(self._levels[row] + 1):
            for other in self._out[row][layer]:
                self._in[other][layer].discard(row)
            for other in self._in[row][layer]:
                self._out[other][layer].remove(row)
                self._adj_cache.pop((other, layer), None)
            self._out[row][layer] = []
            self._in[row][layer] = set()
            self._adj_cache.pop((row, layer), None)

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
        self._unlink(self._row_of[item_id])
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
        width = int(ef if ef is not None else self.ef_search)
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
        chunk = self._lockstep_chunk(256, len(self._id_of))
        found: List[Tuple[np.ndarray, np.ndarray]] = []
        for start in range(0, nq, chunk):
            stop = min(nq, start + chunk)
            entries = [
                self._greedy_descend(
                    queries[i], float(qq[i]), entry_row, self._max_level, 0
                )
                for i in range(start, stop)
            ]
            beams = self._search_layer_batch(
                queries[start:stop], qq[start:stop], entries, 0,
                efs[start:stop], caps[start:stop], sq_radius,
            )
            for qi, beam in enumerate(beams, start):
                if exclude is not None and exclude[qi] >= 0:
                    excl = int(exclude[qi])
                    beam = [t for t in beam if t[1] != excl]
                ids = np.asarray([i for _, i, _ in beam[:k]], dtype=np.int64)
                # Traversal works in squared L2; convert once, here.
                sq = np.asarray([d for d, _, _ in beam[:k]], dtype=np.float64)
                np.maximum(sq, 0.0, out=sq)
                found.append((ids, np.sqrt(sq)))
        return found

    def search(
        self,
        query: np.ndarray,
        k: int,
        ef: Optional[int] = None,
        exclude: Optional[int] = None,
        radius: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN. Returns ``(ids, distances)`` ascending: the
        one-row case of :meth:`search_batch`, without the padding."""
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        excl = None if exclude is None else np.asarray([exclude])
        return self._query(query, int(k), ef, excl, radius)[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        ef: Optional[int] = None,
        exclude: Optional[np.ndarray] = None,
        radius: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """k-NN for many queries; same contract as brute-force
        ``search_batch``: ``(ids, dists)`` of shape ``(n_queries, k)``, rows
        padded with ``-1``/``inf``. ``exclude`` and ``radius`` as in
        :meth:`_query`.

        The layer-0 beams run in *lockstep*: every macro-hop pops one
        candidate per still-active query, concatenates their frontier
        adjacencies, and scores them in a single gather + einsum call —
        amortizing the per-hop numpy dispatch overhead over the whole
        batch. Queries are independent, so lockstep is pure scheduling: a
        batch of N is N batches of one.
        """
        k = int(k)
        found = self._query(queries, k, ef, exclude, radius)
        out_ids = np.full((len(found), k), -1, dtype=np.int64)
        out_d = np.full((len(found), k), np.inf)
        for qi, (ids, dists) in enumerate(found):
            out_ids[qi, : ids.shape[0]] = ids
            out_d[qi, : ids.shape[0]] = dists
        return out_ids, out_d

    def neighbors_within(
        self,
        query: np.ndarray,
        radius: float,
        ef: Optional[int] = None,
        exclude: Optional[int] = None,
        max_neighbors: int = 512,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate range query: the one-row case of
        :meth:`neighbors_within_batch`."""
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        excl = None if exclude is None else np.asarray([exclude])
        return self.neighbors_within_batch(query, radius, excl, max_neighbors, ef)[0]

    def neighbors_within_batch(
        self,
        queries: np.ndarray,
        radius: float,
        exclude: Optional[np.ndarray] = None,
        max_neighbors: int = 512,
        ef: Optional[int] = None,
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
        for ids, dists in self._query(queries, int(max_neighbors), ef, exclude, radius):
            keep = dists <= radius
            within.append((ids[keep], dists[keep]))
        sizes = [ids.size for ids, _ in within]
        return RangeResult(
            np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            np.concatenate([np.empty(0, dtype=np.int64)] + [ids for ids, _ in within]),
            within.__getitem__,
        )

    # ------------------------------------------------------------------
    # Graph reordering (cache locality)
    # ------------------------------------------------------------------
    def reorder(self, strategy: str = "bfs") -> np.ndarray:
        """Relabel storage rows for cache-efficient traversal.

        ``"bfs"`` walks the layer-0 graph breadth-first from the entry point
        so hop-adjacent nodes land in adjacent rows; ``"degree"`` packs
        nodes by descending layer-0 degree (hubs first). Freed rows are
        compacted away. Search results are bit-identical before and after:
        all traversal ordering keys on ``(distance, external id)``.

        Returns the external ids in their new row order.
        """
        live = list(self._row_of.values())
        if not live:
            return np.empty(0, dtype=np.int64)
        order: List[int] = []
        if strategy == "bfs":
            seen = [False] * len(self._id_of)
            start = self._row_of[self._entry]
            queue = deque([start])
            seen[start] = True
            while queue:
                row = queue.popleft()
                order.append(row)
                for nxt in self._out[row][0]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        queue.append(nxt)
            # Rows unreachable from the entry at layer 0, insertion order.
            for row in live:
                if not seen[row]:
                    order.append(row)
        elif strategy == "degree":
            order = sorted(live, key=lambda r: -len(self._out[r][0]))
        else:
            raise ValueError(f"unknown reorder strategy {strategy!r}")

        new_of_old = {old: new for new, old in enumerate(order)}
        n = len(order)
        vectors = np.empty_like(self._vectors)
        norms = np.empty_like(self._norms)
        rows_arr = self._rows_array(order)
        vectors[:n] = self._vectors[rows_arr]
        norms[:n] = self._norms[rows_arr]
        self._levels = [self._levels[old] for old in order]
        self._out = [
            [[new_of_old[t] for t in adj] for adj in self._out[old]]
            for old in order
        ]
        self._in = [
            [{new_of_old[t] for t in adj} for adj in self._in[old]]
            for old in order
        ]
        self._id_of = [self._id_of[old] for old in order]
        # Preserve the id dict's insertion order (it backs the `ids` prop).
        self._row_of = {iid: new_of_old[old] for iid, old in self._row_of.items()}
        self._vectors = vectors
        self._norms = norms
        self._free = []
        self._adj_cache.clear()
        return np.asarray(self._id_of, dtype=np.int64)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Exact snapshot: everything later behaviour depends on.

        The row layout (free rows and their reuse order included, so a later
        insert lands in the row the original would use), the live rows in id
        order (it backs :attr:`ids` and the entry-point repair), levels,
        per-layer out-lists in list order, the entry point, the level-draw
        rng and the construction parameters; reverse-edge sets and norms are
        derived on load. :func:`repro.resilience.state.save_state` takes it.
        """
        lists = [adj for layers in self._out for adj in layers]
        return {
            "dim": self.dim,
            "M": self.M,
            "ef_construction": self.ef_construction,
            "ef_search": self.ef_search,
            "vectors": self._vectors[: len(self._id_of)].copy(),
            "row_ids": np.asarray(self._id_of, dtype=np.int64),
            "live_rows": np.asarray(list(self._row_of.values()), dtype=np.int64),
            "free_rows": np.asarray(self._free, dtype=np.int64),
            "levels": np.asarray(self._levels, dtype=np.int64),
            "degrees": np.asarray([len(adj) for adj in lists], dtype=np.int64),
            "edges": np.asarray([t for adj in lists for t in adj], dtype=np.int64),
            "entry": self._entry,
            "max_level": self._max_level,
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, replacing the contents
        (construction parameters included; ``dim`` must match)."""
        vectors = np.asarray(state["vectors"], dtype=np.float64)
        row_ids = np.asarray(state["row_ids"], dtype=np.int64).tolist()
        levels = np.asarray(state["levels"], dtype=np.int64).tolist()
        degrees = np.asarray(state["degrees"], dtype=np.int64).tolist()
        edges = np.asarray(state["edges"], dtype=np.int64).tolist()
        n = len(row_ids)
        if int(state["dim"]) != self.dim or vectors.shape != (n, self.dim):
            raise ValueError("vector snapshot does not match index dim")
        shape = (len(levels), len(degrees), sum(degrees))
        if shape != (n, n + sum(levels), len(edges)):
            raise ValueError("snapshot rows, levels and out-lists do not align")
        self.M = int(state["M"])
        self.M0 = 2 * self.M
        self._mL = 1.0 / math.log(self.M)
        self.ef_construction = int(state["ef_construction"])
        self.ef_search = int(state["ef_search"])
        self._id_of = []  # the old contents go: growing carries nothing over
        self._grow(n)
        self._vectors[:n] = vectors
        for row in range(n):  # the expression insertion cached, bit for bit
            self._norms[row] = float(vectors[row] @ vectors[row])
        self._id_of = row_ids
        self._levels = levels
        live = np.asarray(state["live_rows"], dtype=np.int64).tolist()
        self._row_of = {row_ids[row]: row for row in live}
        self._free = np.asarray(state["free_rows"], dtype=np.int64).tolist()
        ends = np.cumsum(degrees).tolist()
        lists = (edges[end - deg : end] for deg, end in zip(degrees, ends))
        self._out = [[next(lists) for _ in range(level + 1)] for level in levels]
        self._in = [[set() for _ in layers] for layers in self._out]
        for row, layers in enumerate(self._out):
            for layer, adj in enumerate(layers):
                for target in adj:
                    self._in[target][layer].add(row)
        entry = state["entry"]
        self._entry = None if entry is None else int(entry)
        self._max_level = int(state["max_level"])
        self._rng.bit_generator.state = state["rng"]
        self._adj_cache.clear()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_symmetric_reachability(self) -> float:
        """Fraction of layer-0 edges that are bidirectional (diagnostic)."""
        total = 0
        sym = 0
        for row in self._row_of.values():
            for other in self._out[row][0]:
                total += 1
                if other in self._in[row][0]:
                    sym += 1
        return sym / total if total else 1.0

    def validate_invariants(self) -> None:
        """Raise ``AssertionError`` if internal bookkeeping is inconsistent.

        Checks the id↔row bijection, the forward/reverse edge mirror, edge
        endpoints' liveness and layer bounds, list lengths against ``M0`` /
        ``M``, the entry point's level, and that no cached adjacency array
        is stale. Intended for tests; O(edges).
        """
        live_rows = set(self._row_of.values())
        assert len(live_rows) == len(self._row_of), "row map is not injective"
        for iid, row in self._row_of.items():
            assert 0 <= row < len(self._id_of), f"row {row} out of range"
            assert self._id_of[row] == iid, f"id_of mismatch at row {row}"
        for row in self._free:
            assert self._id_of[row] == _FREE, "free row still has an id"
            assert row not in live_rows, "free row is also live"
        for row in live_rows:
            assert len(self._out[row]) == self._levels[row] + 1
            assert len(self._in[row]) == self._levels[row] + 1
            for layer, adj in enumerate(self._out[row]):
                assert len(set(adj)) == len(adj), "duplicate out-edge"
                assert len(adj) <= (self.M0 if layer == 0 else self.M), "list too long"
                for t in adj:
                    assert t in live_rows, "edge to dead row"
                    assert layer <= self._levels[t], "edge above target level"
                    assert row in self._in[t][layer], "missing reverse edge"
            for layer, rev in enumerate(self._in[row]):
                for s in rev:
                    assert s in live_rows, "reverse edge from dead row"
                    assert row in self._out[s][layer], "stale reverse edge"
        if self._entry is not None:
            assert self._entry in self._row_of, "entry id not indexed"
            entry_row = self._row_of[self._entry]
            assert self._levels[entry_row] == self._max_level, (
                "entry level != max_level"
            )
        for (row, layer), cached in self._adj_cache.items():
            assert layer < len(self._out[row]) and (
                cached.tolist() == self._out[row][layer]
            ), f"stale adjacency cache at row {row}, layer {layer}"
