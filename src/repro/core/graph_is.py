"""Graph-based importance scoring (paper §4.1, Eq. 1-4).

Each sample is a graph node; an edge connects samples whose embedding
similarity ``sim(x,y) = exp(-lambda * d(x,y))`` exceeds threshold ``alpha``.
Equivalently — and this is how we search — an edge exists iff ``d`` is below
``-ln(alpha) / lambda``, so neighbor enumeration is a single range query
against the ANN index. ``d`` is in units of the calibrated distance scale
(:attr:`GraphImportanceScorer.radius`); :data:`DEFAULT_LAM` puts the edge at
0.85 units for the default ``alpha = 0.1``.

For node x with ``x_same`` same-class and ``x_other`` other-class neighbors:

    score(x) = ln(1/x_same + x_other/neighbormax + 1)            (Eq. 4)

Part 1 rewards intra-class rarity (isolated samples), Part 2 rewards
inter-class proximity (boundary/misclassified samples); the log smooths the
distribution. The graph itself is transient (paper §5), and so is what
scoring computes of it: Eq. 4 needs each node's neighbour *set* — the index
answers with one flat id array (:class:`repro.ann.range_result.RangeResult`)
and the counts are one label gather over it — while distances and order are
needed for one node per batch, the top-degree one whose list seeds the
homophily cache, and are computed when that row is read. Only the scores and
that one list survive scoring.

Edge case the paper leaves implicit: ``x_same = 0`` makes Part 1 infinite.
We cap it at ``zero_same_part1`` (default 2.0, strictly above the
``x_same = 1`` value of 1.0) so fully isolated samples rank above
one-neighbor samples without producing infinities.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.ann.brute import BruteForceIndex
from repro.ann.distance import pairwise_l2
from repro.ann.hnsw import HNSWIndex
from repro.ann.range_result import RangeResult
from repro.utils.rng import RngLike

__all__ = [
    "GraphImportanceScorer",
    "BatchScores",
    "NodeScore",
    "importance_score",
    "edge_radius",
    "DEFAULT_LAM",
]

IndexBackend = Union[BruteForceIndex, HNSWIndex]

#: Default lambda: with the default ``alpha = 0.1`` the edge radius is
#: exactly 0.85 calibrated distance units.
DEFAULT_LAM = -math.log(0.1) / 0.85
#: Weight of the old value in the distance-scale EMA's per-batch update.
EMA_DECAY = 0.9


def edge_radius(lam: float, alpha: float) -> float:
    """Distance threshold equivalent to the similarity threshold.

    ``sim > alpha`` with ``sim = exp(-lam * d)`` iff ``d < -ln(alpha)/lam``.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return -math.log(alpha) / lam


def importance_score(
    x_same: np.ndarray,
    x_other: np.ndarray,
    neighbormax: int = 500,
    zero_same_part1: float = 2.0,
) -> np.ndarray:
    """Vectorized Eq. 4 over arrays of neighbor counts."""
    x_same = np.asarray(x_same, dtype=np.float64)
    x_other = np.asarray(x_other, dtype=np.float64)
    if np.any(x_same < 0) or np.any(x_other < 0):
        raise ValueError("neighbor counts must be non-negative")
    with np.errstate(divide="ignore"):
        part1 = np.where(x_same > 0, 1.0 / np.maximum(x_same, 1e-300), zero_same_part1)
    part2 = x_other / float(neighbormax)
    return np.log(part1 + part2 + 1.0)


@dataclass
class NodeScore:
    """Scoring result for one sample in a batch."""

    index: int
    score: float
    x_same: int
    x_other: int
    neighbor_ids: np.ndarray  # edge-connected neighbors (for homophily cache)
    neighbor_dists: np.ndarray  # matching distances, ascending

    @property
    def degree(self) -> int:
        return self.x_same + self.x_other


@dataclass(eq=False)
class BatchScores(Sequence):
    """Scoring result for one batch: one array per field, aligned with
    ``indices``, plus the range query's answer.

    Reads as the sequence of per-sample :class:`NodeScore` records;
    building one reads that sample's row of ``neighbors`` (sorted ids and
    distances), so take rows before the scorer sees its next batch.
    """

    indices: np.ndarray
    scores: np.ndarray
    x_same: np.ndarray
    x_other: np.ndarray
    neighbors: RangeResult

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __getitem__(self, i: int) -> NodeScore:
        ids, dists = self.neighbors[i]
        return NodeScore(
            index=int(self.indices[i]), score=float(self.scores[i]),
            x_same=int(self.x_same[i]), x_other=int(self.x_other[i]),
            neighbor_ids=ids, neighbor_dists=dists,
        )


class GraphImportanceScorer:
    """Maintains the ANN index over embeddings and scores batches.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    labels:
        Full label array, indexed by sample id; neighbor class comparison
        is a lookup into it (the number of classes is never needed).
    lam, alpha:
        Similarity decay, per unit of the calibrated distance scale, and
        edge threshold (Eq. 2-3): the edge radius is ``-ln(alpha)/lam``
        scale units.
    neighbormax:
        Part-2 normalizer; "usually set to 500 in the HNSW default setting".
        Also caps how many neighbors a range query may return.
    backend:
        ``"exact"`` (vectorized brute force; default for simulator-scale
        datasets) or ``"hnsw"`` (the paper's index; sublinear at scale).
    rng:
        Seed / generator for the HNSW index's level draws (the exact
        backend draws nothing).
    """

    def __init__(
        self,
        dim: int,
        labels: np.ndarray,
        lam: float = DEFAULT_LAM,
        alpha: float = 0.1,
        neighbormax: int = 500,
        backend: str = "exact",
        zero_same_part1: float = 2.0,
        rng: RngLike = None,
    ) -> None:
        self.labels = np.asarray(labels, dtype=np.int64)
        self.lam = float(lam)
        self.alpha = float(alpha)
        edge_radius(self.lam, self.alpha)  # rejects lam <= 0, alpha outside (0, 1)
        self._dist_ema: Optional[float] = None
        # np.triu_indices per batch size seen (at most batch_size entries).
        self._pairs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.neighbormax = int(neighbormax)
        self.zero_same_part1 = float(zero_same_part1)
        if backend == "exact":
            self.index: IndexBackend = BruteForceIndex(dim, capacity=len(self.labels))
        elif backend == "hnsw":
            # Pre-size the flat vector matrix to the dataset so the index
            # never pays doubling-regrowth copies mid-training.
            self.index = HNSWIndex(
                dim, capacity=max(len(self.labels), 64), rng=rng
            )
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend

    # ------------------------------------------------------------------
    @property
    def radius(self) -> float:
        """Current edge radius: Eq. 3's ``-ln(alpha)/lam`` times the EMA of
        the batch distance scale (1.0 until a batch has been observed).

        The paper tunes lambda offline per model/dataset so the edge radius
        sits inside the intra-class distance scale. Embedding norms here
        vary with architecture and training progress, so the scale is
        tracked online and lambda is read per unit of it. The
        median-relative radius is deliberately non-stationary: an untrained
        net's distances concentrate tightly around the median, so a
        half-median radius captures almost no pairs (near-edgeless graph,
        near-uniform scores — the low-dispersion start of Fig. 6(c)); as
        class structure forms, within-cluster pairs fall under the radius
        and score dispersion rises, then falls again at convergence.
        """
        scale = 1.0 if self._dist_ema is None else self._dist_ema
        return edge_radius(self.lam, self.alpha) * scale

    def _observe_scale(
        self, embeddings: np.ndarray, batch_labels: Optional[np.ndarray] = None
    ) -> None:
        """Update the distance-scale EMA from one batch's embeddings.

        The scale is the median *same-class* pairwise distance when batch
        labels are available (falling back to the overall median): the edge
        radius should track the intra-class neighborhood size, which shrinks
        relative to the overall median as training clusters the classes —
        and coincides with it before any structure exists (preserving the
        near-edgeless start of the Fig. 6(c) trajectory).
        """
        n = embeddings.shape[0]
        if n < 2:
            return
        d = pairwise_l2(embeddings)
        iu = self._pairs.get(n)
        if iu is None:
            iu = self._pairs[n] = np.triu_indices(n, k=1)
        vals = d[iu]
        if batch_labels is not None:
            same = (batch_labels[:, None] == batch_labels[None, :])[iu]
            if same.sum() >= 4:
                vals = vals[same]
        scale = float(np.median(vals))
        if scale <= 0:
            return
        if self._dist_ema is None:
            self._dist_ema = scale
        else:
            self._dist_ema = EMA_DECAY * self._dist_ema + (1 - EMA_DECAY) * scale

    def update_embeddings(self, indices: Sequence[int], embeddings: np.ndarray) -> None:
        """Algorithm 1 line 15: push the batch's fresh embeddings into the
        ANN index (insert or overwrite)."""
        self.index.add_batch(np.asarray(indices), np.atleast_2d(embeddings))

    def score_batch(
        self, indices: Sequence[int], embeddings: np.ndarray
    ) -> BatchScores:
        """Score one batch (Algorithm 1 lines 15-21).

        Updates the index with the new embeddings first, then range-queries
        every sample (itself excluded; both backends share one batched API)
        and computes its neighbor counts and Eq.-4 score. Returns the
        batch's :class:`BatchScores` (callers keep only the top-degree
        node's list, discarding the transient graph).
        """
        indices = np.asarray(indices, dtype=np.int64)
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if indices.shape[0] != embeddings.shape[0]:
            raise ValueError("indices and embeddings must align")
        self._observe_scale(embeddings, self.labels[indices])
        self.update_embeddings(indices, embeddings)
        neighbors = self.index.neighbors_within_batch(
            embeddings, self.radius, exclude=indices, max_neighbors=self.neighbormax
        )
        # Neighbor counts per sample: one label gather over the flat id
        # array and a segmented sum, then one vectorized Eq.-4 call.
        offsets = neighbors.offsets
        degree = np.diff(offsets)
        same = self.labels[neighbors.ids] == np.repeat(self.labels[indices], degree)
        same_before = np.concatenate(([0], np.cumsum(same)))
        x_same = same_before[offsets[1:]] - same_before[offsets[:-1]]
        x_other = degree - x_same
        scores = importance_score(
            x_same, x_other, self.neighbormax, self.zero_same_part1
        )
        return BatchScores(indices, scores, x_same, x_other, neighbors)

    @staticmethod
    def top_degree_node(scores: BatchScores) -> Optional[NodeScore]:
        """Algorithm 1 lines 18-20: the batch's highest-degree node (the
        first one, of several)."""
        if len(scores) == 0:
            return None
        return scores[int(np.argmax(scores.x_same + scores.x_other))]

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Exact snapshot: calibration EMA plus the ANN index's own
        ``state_dict`` (either backend restores bit-identically)."""
        return {
            "dist_ema": self._dist_ema,
            "index": self.index.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        ema = state["dist_ema"]
        self._dist_ema = None if ema is None else float(ema)
        self.index.load_state_dict(state["index"])
