"""Clustered-embedding dataset generator.

DNN training drives same-class embeddings together and different classes
apart (paper Fig. 8). The graph-based IS algorithm keys off that geometry:
a sample's importance depends on how many same-class vs other-class
neighbors surround it. This generator produces raw feature vectors whose
geometry *already contains* the four sample states of Fig. 8(b), so a small
model trained on them exhibits the same importance-score dynamics the paper
measures on CIFAR/ImageNet:

* **well-classified** — points near their class center,
* **boundary** — points between two class centers (labeled as either),
* **isolated** — far-shell points of their own class,
* **mislabeled** — points drawn from another class's cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, resolve_rng

__all__ = [
    "SyntheticDataset",
    "make_clustered_dataset",
    "train_test_split",
    "KIND_WELL",
    "KIND_BOUNDARY",
    "KIND_ISOLATED",
    "KIND_MISLABELED",
    "KIND_NAMES",
]

KIND_WELL = 0
KIND_BOUNDARY = 1
KIND_ISOLATED = 2
KIND_MISLABELED = 3
KIND_NAMES = {
    KIND_WELL: "well",
    KIND_BOUNDARY: "boundary",
    KIND_ISOLATED: "isolated",
    KIND_MISLABELED: "mislabeled",
}


@dataclass
class SyntheticDataset:
    """In-memory dataset of feature vectors with ground-truth sample kinds.

    ``item_nbytes`` is the *simulated* on-storage size per sample (a raw
    CIFAR image is ~3 KB, an ImageNet JPEG ~110 KB); the storage simulator
    uses it for transfer-time modeling.
    """

    name: str
    X: np.ndarray  # (n, dim) float64
    y: np.ndarray  # (n,) int64
    kinds: np.ndarray  # (n,) int64, KIND_* values
    centers: np.ndarray  # (num_classes, dim)
    item_nbytes: int = 3 * 1024
    meta: Dict[str, float] = field(default_factory=dict)
    # 0 = class's majority mode, 1 = rare minority mode. Minority-mode
    # samples are the ones importance sampling genuinely helps: uniform
    # sampling underserves them, so prioritizing them raises test accuracy.
    modes: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if self.y.shape[0] != n or self.kinds.shape[0] != n:
            raise ValueError("X, y, kinds must have the same length")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def num_classes(self) -> int:
        return self.centers.shape[0]

    def kind_fractions(self) -> Dict[str, float]:
        """Observed fraction of each sample kind."""
        n = len(self)
        return {
            name: float(np.mean(self.kinds == k)) for k, name in KIND_NAMES.items()
        }

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "SyntheticDataset":
        """New dataset restricted to ``indices`` (copies)."""
        idx = np.asarray(indices)
        return SyntheticDataset(
            name=name or f"{self.name}-subset",
            X=self.X[idx].copy(),
            y=self.y[idx].copy(),
            kinds=self.kinds[idx].copy(),
            centers=self.centers,
            item_nbytes=self.item_nbytes,
            meta=dict(self.meta),
            modes=self.modes[idx].copy() if self.modes is not None else None,
        )


def make_clustered_dataset(
    n_samples: int,
    n_classes: int = 10,
    dim: int = 32,
    frac_boundary: float = 0.15,
    frac_isolated: float = 0.05,
    frac_mislabeled: float = 0.02,
    frac_minority: float = 0.15,
    minority_offset: float = 4.0,
    boundary_w_range: Tuple[float, float] = (0.55, 0.7),
    class_skew: float = 0.0,
    cluster_std: float = 1.0,
    center_separation: float = 6.0,
    nuisance_dims: int = 0,
    nuisance_std: float = 0.0,
    item_nbytes: int = 3 * 1024,
    name: str = "synthetic",
    rng: RngLike = None,
) -> SyntheticDataset:
    """Generate a clustered dataset with the Fig.-8 sample taxonomy.

    Class centers are placed at distance ~``center_separation * cluster_std``
    apart (random directions, deterministic given the seed). Fractions must
    sum to < 1; the remainder are well-classified core points.

    ``frac_minority`` of the *well-classified* samples are drawn from a
    rare secondary mode per class, offset ``minority_offset * cluster_std``
    from the main center. These model the long-tail intra-class variation of
    real image datasets: uniform sampling underserves them, so importance
    sampling that prioritizes them genuinely improves test accuracy — the
    mechanism behind the paper's Fig. 13/Table 3 accuracy gains.

    ``class_skew`` > 0 makes class frequencies long-tailed (Zipf-like:
    class c receives weight ``(c+1)**-class_skew``). Long-tail data is the
    regime where importance sampling genuinely beats uniform sampling —
    uniform batches are dominated by head classes, so tail classes are
    undertrained at a fixed budget, while IS re-prioritizes them.

    ``nuisance_dims``/``nuisance_std`` add class-independent noise along a
    few shared random directions with variance large enough to dominate raw
    L2 distances. This models raw image pixels, where nearest neighbors are
    driven by lighting/background rather than class: an untrained feature
    extractor sees no class clusters, and the cluster structure only emerges
    as training learns to project the nuisance out — which is what makes the
    importance-score dispersion *rise then fall* (paper Fig. 6(c)).
    """
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    hard_total = frac_boundary + frac_isolated + frac_mislabeled
    if hard_total >= 1.0:
        raise ValueError("hard-sample fractions must sum to < 1")
    gen = resolve_rng(rng)

    if not 0.0 <= frac_minority < 1.0:
        raise ValueError("frac_minority must be in [0, 1)")

    # Class centers: random gaussian directions scaled for separation. In
    # high dimension, iid gaussian centers are near-orthogonal, giving
    # near-uniform pairwise separation.
    centers = gen.normal(0.0, 1.0, size=(n_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= center_separation * cluster_std

    # Rare secondary mode per class: a random offset direction from the
    # main center, scaled to sit inside the class's own region.
    minority_dirs = gen.normal(0.0, 1.0, size=(n_classes, dim))
    minority_dirs /= np.linalg.norm(minority_dirs, axis=1, keepdims=True)
    minority_centers = centers + minority_dirs * minority_offset * cluster_std

    if class_skew < 0:
        raise ValueError("class_skew must be non-negative")
    if class_skew > 0:
        # Zipf-like long tail, with every class guaranteed >= 2 samples.
        weights = (np.arange(1, n_classes + 1, dtype=np.float64)) ** -class_skew
        weights /= weights.sum()
        counts = np.maximum(2, np.round(weights * n_samples).astype(int))
        # Trim/extend the head class to hit n_samples exactly.
        counts[0] += n_samples - counts.sum()
        if counts[0] < 2:
            raise ValueError("class_skew too extreme for this sample count")
        labels = np.repeat(np.arange(n_classes), counts)
    else:
        labels = np.tile(np.arange(n_classes), n_samples // n_classes + 1)[:n_samples]
    gen.shuffle(labels)

    n_boundary = int(round(frac_boundary * n_samples))
    n_isolated = int(round(frac_isolated * n_samples))
    n_mislabeled = int(round(frac_mislabeled * n_samples))
    kinds = np.full(n_samples, KIND_WELL, dtype=np.int64)
    special = gen.permutation(n_samples)[: n_boundary + n_isolated + n_mislabeled]
    kinds[special[:n_boundary]] = KIND_BOUNDARY
    kinds[special[n_boundary : n_boundary + n_isolated]] = KIND_ISOLATED
    kinds[special[n_boundary + n_isolated :]] = KIND_MISLABELED

    # Minority-mode assignment among well-classified samples.
    modes = np.zeros(n_samples, dtype=np.int64)
    well_idx = np.flatnonzero(kinds == KIND_WELL)
    n_minor = int(round(frac_minority * well_idx.size))
    if n_minor:
        modes[gen.choice(well_idx, size=n_minor, replace=False)] = 1

    X = np.empty((n_samples, dim))
    noise = gen.normal(0.0, cluster_std, size=(n_samples, dim))

    for i in range(n_samples):
        c = labels[i]
        kind = kinds[i]
        if kind == KIND_WELL:
            base = minority_centers[c] if modes[i] else centers[c]
            X[i] = base + noise[i]
        elif kind == KIND_BOUNDARY:
            other = int(gen.integers(n_classes - 1))
            if other >= c:
                other += 1
            # Default range keeps boundary samples on their own side of the
            # midpoint (w > 0.5): hard but genuinely learnable. Passing a
            # range straddling 0.5 (e.g. (0.4, 0.6)) makes them ambiguous —
            # slow-to-learn mass whose losses converge late, which is what
            # stretches the Fig. 6(c) dispersion peak across epochs.
            w = gen.uniform(*boundary_w_range)
            X[i] = w * centers[c] + (1 - w) * centers[other] + 0.5 * noise[i]
        elif kind == KIND_ISOLATED:
            direction = noise[i]
            nrm = np.linalg.norm(direction)
            if nrm == 0:
                direction = np.ones(dim) / np.sqrt(dim)
                nrm = 1.0
            radius = gen.uniform(3.0, 5.0) * cluster_std * np.sqrt(dim)
            X[i] = centers[c] + direction / nrm * radius
        else:  # KIND_MISLABELED: body from another class, label kept as c.
            other = int(gen.integers(n_classes - 1))
            if other >= c:
                other += 1
            X[i] = centers[other] + noise[i]

    if nuisance_dims > 0 and nuisance_std > 0:
        if nuisance_dims > dim:
            raise ValueError("nuisance_dims cannot exceed dim")
        # Shared random orthonormal directions carrying class-independent
        # high-variance noise (QR of a random matrix gives orthonormal cols).
        basis, _ = np.linalg.qr(gen.normal(size=(dim, nuisance_dims)))
        coeffs = gen.normal(0.0, nuisance_std * cluster_std, size=(n_samples, nuisance_dims))
        X += coeffs @ basis.T

    return SyntheticDataset(
        name=name,
        X=X,
        y=labels.astype(np.int64),
        kinds=kinds,
        centers=centers,
        item_nbytes=item_nbytes,
        meta={
            "cluster_std": cluster_std,
            "center_separation": center_separation,
            "frac_boundary": frac_boundary,
            "frac_isolated": frac_isolated,
            "frac_mislabeled": frac_mislabeled,
            "frac_minority": frac_minority,
            "minority_offset": minority_offset,
            "boundary_w_low": boundary_w_range[0],
            "boundary_w_high": boundary_w_range[1],
            "nuisance_dims": nuisance_dims,
            "nuisance_std": nuisance_std,
        },
        modes=modes,
    )


def train_test_split(
    dataset: SyntheticDataset, test_fraction: float = 0.2, rng: RngLike = None
) -> Tuple[SyntheticDataset, SyntheticDataset]:
    """Random split preserving per-sample kinds."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    gen = resolve_rng(rng)
    n = len(dataset)
    perm = gen.permutation(n)
    n_test = int(round(test_fraction * n))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (
        dataset.subset(train_idx, name=f"{dataset.name}-train"),
        dataset.subset(test_idx, name=f"{dataset.name}-test"),
    )
