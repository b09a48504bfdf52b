"""Training-policy protocol.

A *policy* bundles everything that varies between SpiderCache and the
baselines: the epoch sampling order (importance vs random), the cache
hierarchy a fetch traverses, any backprop selectivity (iCache's
compute-bound IS), and per-batch/per-epoch bookkeeping. The
:class:`~repro.train.trainer.Trainer` drives models through a policy without
knowing which one it is — mirroring how the paper implements every method as
a PyTorch DataLoader/Sampler swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cache.base import CacheStats
from repro.core.semantic_cache import FetchOutcome, FetchSource
from repro.data.synthetic import SyntheticDataset
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.storage.backends import RemoteStore
from repro.utils.rng import RngLike, resolve_rng

__all__ = ["PolicyContext", "TrainingPolicy"]


@dataclass
class PolicyContext:
    """Everything a policy needs at setup time."""

    dataset: SyntheticDataset
    store: RemoteStore
    total_epochs: int
    embedding_dim: int

    @property
    def num_samples(self) -> int:
        return len(self.dataset)


class TrainingPolicy:
    """Base policy: random sampling, no cache (every fetch goes remote)."""

    name = "no-cache"

    def __init__(self, rng: RngLike = None) -> None:
        self._rng = resolve_rng(rng)
        self.ctx: Optional[PolicyContext] = None
        self._obs = NULL_OBSERVER

    # ------------------------------------------------------------------
    def setup(self, ctx: PolicyContext) -> None:
        """Bind the policy to a dataset/store; called once by the trainer."""
        self.ctx = ctx

    def attach_observer(self, observer: Observer) -> None:
        """Wire the run observer into the policy (call after ``setup``).

        The base policy only keeps the reference; subclasses with caches
        or managers cascade it. Observer wiring is runtime-only — never
        checkpointed.
        """
        self._obs = observer

    def _require_ctx(self) -> PolicyContext:
        if self.ctx is None:
            raise RuntimeError(f"policy {self.name!r} used before setup()")
        return self.ctx

    # ------------------------------------------------------------------
    def before_epoch(self, epoch: int) -> None:
        """Pre-epoch hook (e.g. importance-driven prefetching)."""

    def epoch_order(self, epoch: int) -> np.ndarray:
        """Sample ids to visit this epoch (default: random permutation)."""
        return self._rng.permutation(self._require_ctx().num_samples)

    def _served(
        self, index: int, served_id: int, payload, source: FetchSource
    ) -> FetchOutcome:
        """The outcome of one request, published to the observer."""
        if self._obs.active:
            self._obs.on_fetch(index, served_id, source)
        return FetchOutcome(index, served_id, payload, source)

    def fetch(self, index: int) -> FetchOutcome:
        """Serve one sample request (default: always remote)."""
        payload = self._require_ctx().store.get(index)
        return self._served(index, index, payload, FetchSource.REMOTE)

    def fetch_many(self, indices: Sequence[int]) -> List[FetchOutcome]:
        """Serve one batch of requests, in order (the loaders' entry;
        default: :meth:`fetch` per id)."""
        return [self.fetch(int(i)) for i in indices]

    def backprop_mask(
        self, indices: np.ndarray, losses: np.ndarray
    ) -> Optional[np.ndarray]:
        """Per-sample 0/1 backprop weights; ``None`` trains every sample.

        Only iCache's compute-bound IS uses this (skip backprop for
        well-learned samples).
        """
        return None

    def after_batch(
        self,
        requested: np.ndarray,
        served: np.ndarray,
        losses: np.ndarray,
        embeddings: np.ndarray,
        epoch: int,
    ) -> None:
        """Post-batch hook: IS updates, cache refreshes."""

    def after_epoch(self, epoch: int, val_accuracy: float) -> None:
        """Post-epoch hook: elastic ratio adjustment, score snapshots."""

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable policy state; subclasses extend.

        The base contribution is the policy's RNG stream (the bit-generator
        state), which exact mid-run recovery needs: epoch orders drawn after
        a restore must match the orders an uninterrupted run would draw.
        """
        return {"rng": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (call after ``setup``)."""
        self._rng.bit_generator.state = state["rng"]

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Aggregate cache stats (empty for cacheless policies)."""
        return CacheStats()

    @property
    def is_ms_per_batch(self) -> Optional[float]:
        """Extra per-batch importance-computation cost in milliseconds.

        The trainer combines this with the pipeline-overlap model to charge
        only the *visible* portion. ``None`` means "defer to the model
        spec's Table-1 IS cost" — the right answer for graph-based IS, whose
        cost scales with the model's embedding dimension.
        """
        return 0.0

    @property
    def imp_ratio(self) -> Optional[float]:
        """Current importance-cache fraction, if the policy has one."""
        return None
