"""Synchronous data-parallel training with real gradient math (§6.6, Fig. 17).

A topology builder over the epoch loop in :mod:`repro.train.trainer` — no
per-batch code lives here:

* the dataset is partitioned across ``world_size`` workers (PyTorch's
  ``DistributedSampler`` convention), or — ``shared_cache=True``, the
  paper's deployment: one Redis shared by every GPU — all workers fetch
  through ONE policy/cache over the full dataset and each epoch's global
  importance order is split round-robin;
* each worker holds a full model replica; every step the loop averages the
  replicas' gradients and applies the identical update to each, so they
  stay bit-identical, which :meth:`DataParallelTrainer.replicas_in_sync`
  asserts.

Simulated step time = the slowest worker's data-load time (the I/O
straggler effect) + per-worker compute + a ring-all-reduce communication
term that grows with the worker count — the Fig.-17 shape from first
principles.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.data.synthetic import SyntheticDataset
from repro.nn.models import Model
from repro.obs.observer import Observer
from repro.storage.clock import SimClock
from repro.train.metrics import TrainResult
from repro.train.policy_base import TrainingPolicy
from repro.train.trainer import UNSHARDED_REAL, EpochRunner, TrainerConfig
from repro.utils.rng import RngLike

__all__ = ["DataParallelTrainer"]


class DataParallelTrainer(EpochRunner):
    """Train ``world_size`` synchronized replicas over shards.

    Parameters
    ----------
    model_factory:
        ``() -> Model``; called once per worker. Factories must be
        deterministic (same seed) so replicas start identical.
    policy_factory:
        ``(rank) -> TrainingPolicy``; each worker gets its own cache over
        its shard (per-worker caches), or rank 0's policy serves every
        worker (``shared_cache=True``).

    The cache topology comes from the config: with ``shared_cache=True``
    and ``cache_shards > 0``, the shared tier becomes a
    :class:`~repro.dist.client.ShardedCacheClient` over that many shard
    servers; RPC latency is charged to the shared clock's ``"rpc"`` stage.
    ``cache_shards=0`` keeps the in-process monolithic cache.
    """

    def __init__(
        self,
        model_factory: Callable[[], Model],
        train_set: SyntheticDataset,
        test_set: SyntheticDataset,
        policy_factory: Callable[[int], TrainingPolicy],
        world_size: int = 2,
        config: Optional[TrainerConfig] = None,
        observer: Optional[Observer] = None,
        rng: RngLike = None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        super().__init__(train_set, test_set, config, observer, rng)
        cfg = self.config
        if cfg.cache_shards < 0:
            raise ValueError("cache_shards must be non-negative")
        if cfg.cache_shards and not cfg.shared_cache:
            raise ValueError("cache_shards requires shared_cache=True")
        if not cfg.cache_shards:
            if cfg.clock_mode == "real":
                raise ValueError(UNSHARDED_REAL)
            cfg.reject_unsharded_rpc()
        self.world_size = int(world_size)
        self.cache_shards = int(cfg.cache_shards)
        self.shared_cache = bool(cfg.shared_cache)
        self._shared_clock = SimClock()

        n = len(train_set)
        batch_size = max(1, cfg.batch_size // world_size)
        if self.shared_cache:
            shards = [np.arange(n)] * world_size
        else:
            shards = np.array_split(self._rng.permutation(n), world_size)
        for rank, shard in enumerate(shards):
            model = model_factory()
            if self.shared_cache and rank > 0:
                first = self.workers[0]
                policy, store, dataset = first.policy, first.store, train_set
            else:
                policy = policy_factory(rank)
                if self.shared_cache:
                    dataset, clock = train_set, self._shared_clock
                else:
                    name = f"{train_set.name}-w{rank}"
                    dataset, clock = train_set.subset(shard, name=name), SimClock()
                if self.cache_shards:
                    # Swap the policy's cache tier for the sharded service:
                    # one logical cache, N shard servers, RPCs charged to
                    # the shared clock.
                    policy.cache_factory = self._make_shard_client
                store = self._setup_policy(policy, model, dataset, clock)
            self._add_replica(shard, model, policy, store, dataset.y, batch_size)

        # Broadcast worker 0's weights so every replica starts identical
        # even if the factory is not perfectly deterministic.
        ref = self.workers[0].model.state_dict()
        for w in self.workers[1:]:
            w.model.load_state_dict(ref)
        self._attach_observer()

    # ------------------------------------------------------------------
    def _make_shard_client(
        self, capacity: int, imp_ratio: float = 0.9, layers=None
    ):
        """Cache-factory hook injected into the rank-0 policy.

        Imports :mod:`repro.dist` here, not at module top: it pulls in
        ``multiprocessing``, and importing it after the rest of a training
        run's modules costs 44-49 ms (three runs, 2-vCPU Xeon, Python
        3.11), about 15 % of the 0.31-0.32 s those imports take — set-up
        time an unsharded run would pay for nothing.
        """
        from repro.dist.client import ShardedCacheClient
        from repro.dist.retry import RetryPolicy

        cfg = self.config
        return ShardedCacheClient(
            capacity,
            imp_ratio=imp_ratio,
            layers=layers,
            n_shards=self.cache_shards,
            transport=cfg.clock_mode,
            clock=self._shared_clock,
            deadline_s=cfg.rpc_deadline_s,
            retry=RetryPolicy(max_attempts=cfg.rpc_retry_budget),
        )

    def _shared_client(self):
        """The sharded-cache client, if this run uses one: the rank-0
        policy's cache, which :meth:`_make_shard_client` built."""
        return self.workers[0].policy.cache if self.cache_shards else None

    # -- the epoch loop's topology seams ---------------------------------
    def _on_epoch_end(self, epoch: int) -> None:
        client = self._shared_client()
        if client is not None and self.observer.active:
            self.observer.on_shards(client.shard_snapshots())

    def _run_meta(self, result: TrainResult) -> dict:
        return {
            **super()._run_meta(result),
            "world_size": self.world_size,
            "shared_cache": self.shared_cache,
            "cache_shards": self.cache_shards,
        }

    def _new_result(self) -> TrainResult:
        result = super()._new_result()
        result.policy_name += f"@dp{self.world_size}"
        return result

    # ------------------------------------------------------------------
    def replicas_in_sync(self, atol: float = 1e-10) -> bool:
        """True iff every replica's parameters match worker 0's."""
        ref = self.workers[0].model.state_dict()
        for w in self.workers[1:]:
            for k, v in w.model.state_dict().items():
                if k.startswith(("features", "head")) and "running" in k:
                    continue  # batchnorm running stats differ per shard
                if not np.allclose(v, ref[k], atol=atol):
                    return False
        return True

    def run(self) -> TrainResult:
        """Train all replicas synchronously; returns the run record and
        releases the shard workers (:meth:`close`)."""
        try:
            return super().run()
        finally:
            self.close()

    def close(self) -> None:
        """Release the real transport's shard worker processes
        (idempotent; a no-op for simulated runs)."""
        client = self._shared_client()
        if client is not None:
            client.close()
