"""DataLoader: turns a policy's epoch order into collated batches.

Mirrors the paper's modified PyTorch DataLoader (§5): the sampler decides
*which* ids to visit, each id is fetched *through the policy's cache
hierarchy* (possibly served a substitute sample), and payloads are collated
into arrays for the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cache.base import FetchSource

__all__ = ["Batch", "DataLoader"]


@dataclass
class Batch:
    """One collated mini-batch."""

    requested: np.ndarray  # ids the sampler asked for
    served: np.ndarray  # ids actually delivered (substitutions differ)
    X: np.ndarray  # payload rows, stacked
    y: np.ndarray  # labels of the *served* samples
    sources: List[FetchSource]

    def __len__(self) -> int:
        return self.requested.shape[0]


class DataLoader:
    """Batches an epoch order through a batch fetch function.

    Parameters
    ----------
    labels:
        Full label array; served ids are labeled from it (a substitute
        sample trains under its *own* label).
    fetch_many:
        ``ids -> [FetchOutcome]`` in request order (a policy's
        ``fetch_many``): the batch entry :meth:`collate` calls once per
        batch.
    batch_size:
        Mini-batch size; the final short batch is kept (not dropped).
    """

    def __init__(
        self, labels: np.ndarray, fetch_many, batch_size: int = 128,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.labels = np.asarray(labels, dtype=np.int64)
        self.fetch_many = fetch_many
        self.batch_size = int(batch_size)
        # Samples dropped by degraded-mode serving (payload-less outcomes
        # with source SKIPPED); batches shrink rather than the run crashing.
        self.skipped_count = 0

    def collate(self, ids: np.ndarray) -> Optional[Batch]:
        """Fetch and collate one batch worth of sample ids.

        Outcomes without a payload (degraded-mode skips) are dropped; a
        batch whose every sample was skipped collates to ``None``.
        """
        outcomes = self.fetch_many(np.asarray(ids, dtype=np.int64))
        kept = [o for o in outcomes if o.payload is not None]
        skipped = len(outcomes) - len(kept)
        if skipped:
            self.skipped_count += skipped
        if not kept:
            return None
        served = np.asarray([o.served_id for o in kept], dtype=np.int64)
        X = np.stack([np.asarray(o.payload) for o in kept])
        return Batch(
            requested=np.asarray([o.requested_id for o in kept], dtype=np.int64),
            served=served,
            X=X,
            y=self.labels[served],
            sources=[o.source for o in kept],
        )

    def n_batches(self, order: np.ndarray) -> int:
        """Batch-slot count for one epoch order (skips still occupy slots)."""
        n = np.asarray(order).shape[0]
        return (n + self.batch_size - 1) // self.batch_size

    def batch_ids(self, order: np.ndarray, batch: int) -> np.ndarray:
        """The sample ids occupying batch slot ``batch`` of ``order``."""
        order = np.asarray(order, dtype=np.int64)
        start = batch * self.batch_size
        return order[start : start + self.batch_size]
