"""Training-policy protocol.

A *policy* bundles everything that varies between SpiderCache and the
baselines: the epoch sampling order (importance vs random), the layers of
the one :class:`~repro.core.semantic_cache.SemanticCache` every fetch
traverses, any backprop selectivity (iCache's compute-bound IS), and
per-batch/per-epoch bookkeeping. The
:class:`~repro.train.trainer.Trainer` drives models through a policy without
knowing which one it is — mirroring how the paper implements every method as
a PyTorch DataLoader/Sampler swap.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cache.base import Cache, CacheStats
from repro.core.semantic_cache import FetchOutcome, SemanticCache
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
    """Base policy: random sampling over a cache with no layers (every
    fetch goes remote).

    Every policy serves through one :class:`SemanticCache`, built in
    :meth:`setup` by ``cache_factory(capacity, imp_ratio, layers)`` over
    the layers :meth:`_cache_layers` returns for ``cache_fraction`` of the
    dataset. The data-parallel trainer swaps ``cache_factory`` for the
    shard tier, which places any layer's payloads.
    """

    name = "no-cache"
    #: Cache budget as a fraction of the dataset.
    cache_fraction = 0.0
    cache_factory: Callable[..., SemanticCache] = SemanticCache

    def __init__(self, rng: RngLike = None) -> None:
        self._rng = resolve_rng(rng)
        self.ctx: Optional[PolicyContext] = None
        self.cache: Optional[SemanticCache] = None
        self._obs = NULL_OBSERVER

    # ------------------------------------------------------------------
    def _cache_layers(self, capacity: int) -> List[Cache]:
        """The cache's layers for ``capacity`` items, in lookup order."""
        return []

    def _build_cache(self, capacity: int) -> SemanticCache:
        return self.cache_factory(capacity, layers=self._cache_layers(capacity))

    def setup(self, ctx: PolicyContext) -> None:
        """Bind the policy to a dataset/store and build its cache; called
        once by the trainer."""
        self.ctx = ctx
        self.cache = self._build_cache(
            int(round(self.cache_fraction * ctx.num_samples))
        )

    def attach_observer(self, observer: Observer) -> None:
        """Wire the run observer into the policy and its cache (call after
        ``setup``). Observer wiring is runtime-only — never checkpointed.
        """
        self._obs = observer
        if self.cache is not None:
            self.cache.attach_observer(observer)

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

    def _scores(self, ids: List[int]) -> List[float]:
        """The requests' importance scores, for the layers' decisions."""
        return [0.0] * len(ids)

    def fetch_many(self, indices: Sequence[int]) -> List[FetchOutcome]:
        """Serve one batch of requests through the cache, in order (the
        loaders' entry)."""
        store = self._require_ctx().store
        assert self.cache is not None
        ids = [int(i) for i in indices]
        return self.cache.fetch_many(ids, self._scores(ids), store.get)

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
        a restore must match the orders an uninterrupted run would draw —
        and the cache, eviction order included.
        """
        assert self.cache is not None
        return {
            "rng": self._rng.bit_generator.state,
            "cache": self.cache.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (call after ``setup``)."""
        assert self.cache is not None
        self._rng.bit_generator.state = state["rng"]
        self.cache.load_state_dict(state["cache"])

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """The cache's request counts, with admissions and evictions summed
        over its layers (empty before ``setup``)."""
        if self.cache is None:
            return CacheStats()
        stats = dataclasses.replace(self.cache.stats)
        layers = [layer.stats for layer in self.cache.layers]
        stats.insertions = sum(s.insertions for s in layers)
        stats.evictions = sum(s.evictions for s in layers)
        return stats

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
