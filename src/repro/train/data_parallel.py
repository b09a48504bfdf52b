"""Synchronous data-parallel training with real gradient math.

Extends the post-hoc scaling model of :mod:`repro.train.multigpu` with an
actual multi-worker run (paper §6.6 evaluates 1-4 GPUs):

* the dataset is partitioned across ``world_size`` workers (PyTorch's
  ``DistributedSampler`` convention);
* each worker holds a full model replica, its own cache policy over its
  shard, and its own simulated store/clock;
* every step, workers compute gradients on their shards; gradients are
  averaged and the identical update is applied to every replica — so the
  replicas stay bit-identical, which :meth:`replicas_in_sync` asserts.

Simulated step time = max over workers of their data-load time (the I/O
straggler effect) + per-worker compute + a ring-all-reduce communication
term that grows with the worker count — reproducing the Fig.-17 shape from
first principles rather than by scaling a single-GPU run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.data.loader import DataLoader
from repro.data.synthetic import SyntheticDataset
from repro.nn.models import Model
from repro.nn.optim import SGD
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency, LatencyModel
from repro.train.metrics import EpochMetrics, TrainResult
from repro.train.pipeline import StageCostModel
from repro.train.policy_base import PolicyContext, TrainingPolicy
from repro.train.trainer import TrainerConfig
from repro.utils.rng import RngLike, resolve_rng

__all__ = ["DataParallelTrainer", "WorkerState"]

#: SimClock stage the cache-protocol RPC tier charges. Mirrors
#: ``repro.dist.rpc.SimRpcChannel.STAGE`` without importing it — the
#: trainer must stay importable when the dist tier is absent or broken
#: (``repro.dist`` is only imported lazily, at shard-client construction).
RPC_STAGE = "rpc"


@dataclass
class WorkerState:
    """One worker's replica, shard, policy, and loader."""

    rank: int
    shard: np.ndarray  # global sample ids owned by this worker
    model: Model
    policy: TrainingPolicy
    store: RemoteStore
    clock: SimClock
    loader: DataLoader
    optimizer: SGD


class DataParallelTrainer:
    """Train ``world_size`` synchronized replicas over shards.

    Parameters
    ----------
    model_factory:
        ``() -> Model``; called once per worker. Factories must be
        deterministic (same seed) so replicas start identical.
    policy_factory:
        ``(rank) -> TrainingPolicy``; each worker gets its own cache over
        its shard (per-worker caches, as in the paper's multi-GPU setup).
    comm_ms_per_step:
        All-reduce cost at 2 workers; scaled by ``2 (K-1)/K``.
    cache_shards:
        With ``shared_cache=True`` and ``cache_shards > 0``, the shared
        tier becomes a :class:`~repro.dist.client.ShardedCacheClient`
        over that many shard servers; RPC latency is charged to the
        shared clock's ``"rpc"`` stage. ``0`` keeps the in-process
        monolithic cache.
    """

    def __init__(
        self,
        model_factory: Callable[[], Model],
        train_set: SyntheticDataset,
        test_set: SyntheticDataset,
        policy_factory: Callable[[int], TrainingPolicy],
        world_size: int = 2,
        config: Optional[TrainerConfig] = None,
        latency: Optional[LatencyModel] = None,
        comm_ms_per_step: float = 8.0,
        shared_cache: Optional[bool] = None,
        cache_shards: Optional[int] = None,
        rpc_latency: Optional[LatencyModel] = None,
        observer: Optional[Observer] = None,
        rng: RngLike = None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.train_set = train_set
        self.test_set = test_set
        self.config = config or TrainerConfig()
        # Topology knobs live in TrainerConfig; explicit arguments win.
        if shared_cache is None:
            shared_cache = self.config.shared_cache
        if cache_shards is None:
            cache_shards = self.config.cache_shards
        if cache_shards < 0:
            raise ValueError("cache_shards must be non-negative")
        if cache_shards and not shared_cache:
            raise ValueError("cache_shards requires shared_cache=True")
        self.world_size = int(world_size)
        self.comm_ms_per_step = float(comm_ms_per_step)
        self.cache_shards = int(cache_shards)
        self.observer = observer if observer is not None else NULL_OBSERVER
        # shared_cache=True models the paper's multi-GPU deployment: all
        # workers fetch through ONE policy/cache over the full dataset (one
        # Redis shared by every GPU), and each epoch's global importance
        # order is split round-robin across workers. shared_cache=False
        # gives fully sharded workers (each owns a fixed data partition
        # with its own cache — the DistributedSampler convention).
        self.shared_cache = bool(shared_cache)
        self._rng = resolve_rng(rng)

        n = len(train_set)
        per_worker_batch = max(1, self.config.batch_size // world_size)

        shared_policy: Optional[TrainingPolicy] = None
        shared_store: Optional[RemoteStore] = None
        shared_clock: Optional[SimClock] = None
        if self.shared_cache:
            shared_clock = SimClock()
            shared_store = RemoteStore(
                train_set.X,
                item_nbytes=train_set.item_nbytes,
                latency=latency or ConstantLatency(),
                clock=shared_clock,
            )
        self._shared_clock = shared_clock
        self._rpc_latency = rpc_latency

        if self.shared_cache:
            shards = [np.arange(n) for _ in range(world_size)]
        else:
            perm = self._rng.permutation(n)
            shards = np.array_split(perm, world_size)

        self.workers: List[WorkerState] = []
        for rank, shard in enumerate(shards):
            model = model_factory()
            if self.shared_cache:
                shard_set = train_set
                clock = shared_clock
                store = shared_store
                if rank == 0:
                    policy = policy_factory(rank)
                    if self.cache_shards:
                        # Swap the policy's cache tier for the sharded
                        # service: one logical cache, N shard servers,
                        # RPCs charged to the shared clock.
                        if not hasattr(policy, "cache_factory"):
                            raise ValueError(
                                "cache_shards requires a policy with a "
                                "cache_factory hook"
                            )
                        policy.cache_factory = self._make_shard_client
                    policy.setup(
                        PolicyContext(
                            dataset=train_set,
                            store=store,
                            batch_size=per_worker_batch,
                            total_epochs=self.config.epochs,
                            embedding_dim=model.embedding_dim,
                            rng=self._rng.spawn(1)[0],
                        )
                    )
                    shared_policy = policy
                else:
                    policy = shared_policy
            else:
                shard_set = train_set.subset(
                    shard, name=f"{train_set.name}-w{rank}"
                )
                clock = SimClock()
                store = RemoteStore(
                    shard_set.X,
                    item_nbytes=train_set.item_nbytes,
                    latency=latency or ConstantLatency(),
                    clock=clock,
                )
                policy = policy_factory(rank)
                policy.setup(
                    PolicyContext(
                        dataset=shard_set,
                        store=store,
                        batch_size=per_worker_batch,
                        total_epochs=self.config.epochs,
                        embedding_dim=model.embedding_dim,
                        rng=self._rng.spawn(1)[0],
                    )
                )
            loader = DataLoader(
                shard_set.y, policy.fetch, batch_size=per_worker_batch,
                fetch_many_fn=policy.fetch_many,
            )
            optimizer = SGD(
                model.params(), lr=self.config.lr,
                momentum=self.config.momentum,
                weight_decay=self.config.weight_decay,
            )
            self.workers.append(
                WorkerState(rank, shard, model, policy, store, clock, loader,
                            optimizer)
            )

        # Broadcast worker 0's weights so every replica starts identical
        # even if the factory is not perfectly deterministic.
        ref = self.workers[0].model.state_dict()
        for w in self.workers[1:]:
            w.model.load_state_dict(ref)

        if self.observer.active:
            self._attach_observer()

    # ------------------------------------------------------------------
    def _make_shard_client(self, capacity: int, imp_ratio: float):
        """Cache-factory hook injected into the rank-0 policy.

        Imports :mod:`repro.dist` lazily so plain (non-sharded) runs and
        module imports never depend on the dist tier being present.
        """
        try:
            from repro.dist.client import ShardedCacheClient
            from repro.dist.retry import RetryPolicy
        except ImportError as exc:  # pragma: no cover - env-specific
            raise RuntimeError(
                "cache_shards > 0 needs the sharded cache service "
                "(repro.dist), which failed to import; run without "
                "--cache-shards or repair the installation"
            ) from exc
        cfg = self.config
        if cfg.clock_mode == "real":
            # Wall-clock tier: shard servers in real worker processes on
            # their own WallClock (RPC time is measured, not charged to
            # the run's simulated clock; breaker cooldowns and retry
            # backoffs become real seconds).
            return ShardedCacheClient(
                capacity,
                imp_ratio=imp_ratio,
                n_shards=self.cache_shards,
                transport="real",
                deadline_s=cfg.rpc_deadline_s,
                retry=RetryPolicy(max_attempts=cfg.rpc_retry_budget),
            )
        return ShardedCacheClient(
            capacity,
            imp_ratio=imp_ratio,
            n_shards=self.cache_shards,
            clock=self._shared_clock,
            latency=self._rpc_latency,
            deadline_s=cfg.rpc_deadline_s,
            retry=RetryPolicy(max_attempts=cfg.rpc_retry_budget),
        )

    def _shared_client(self):
        """The shared sharded-cache client, if this run uses one.

        Duck-typed on ``shard_snapshots`` (the one capability the run
        loop needs) rather than an isinstance check, to keep this module
        import-independent of ``repro.dist``.
        """
        if not self.cache_shards:
            return None
        cache = getattr(self.workers[0].policy, "cache", None)
        return cache if hasattr(cache, "shard_snapshots") else None

    def _maybe_resize_shards(self, client, epoch: int) -> None:
        """Epoch-boundary live-resize driver.

        At the configured trigger epoch the client plans the migration;
        every epoch boundary after that drains as many pending batches
        as the (possibly faulted) shard tier will take, so a stalled
        migration simply resumes next epoch once outages end and breaker
        cool-downs elapse. ``cache_shards`` tracks the client's live
        shard count once the ring swap lands.
        """
        at = self.config.resize_shards_at
        if at is not None and epoch == int(at[0]):
            client.resize(int(at[1]), drain=False)
        if client.migration is not None:
            client.continue_migration()
        self.cache_shards = client.n_shards

    def _attach_observer(self) -> None:
        """Wire the run observer through the shared store and policies."""
        obs = self.observer
        obs.hit_latency_s = self.config.hit_latency_s
        seen = set()
        for w in self.workers:
            if hasattr(w.store, "attach_observer") and id(w.store) not in seen:
                w.store.attach_observer(obs)
                seen.add(id(w.store))
            if id(w.policy) not in seen:
                w.policy.attach_observer(obs)
                seen.add(id(w.policy))

    def _emit_run_start(self) -> None:
        if not self.observer.active:
            return
        cfg = self.config
        first = self.workers[0]
        self.observer.on_run_start({
            "policy": first.policy.name,
            "model": first.model.spec.name if first.model.spec else "custom",
            "dataset": self.train_set.name,
            "epochs": cfg.epochs,
            "batch_size": cfg.batch_size,
            "io_workers": cfg.io_workers,
            "prefetch_workers": cfg.prefetch_workers,
            "hit_latency_s": cfg.hit_latency_s,
            "world_size": self.world_size,
            "shared_cache": self.shared_cache,
            "cache_shards": self.cache_shards,
        })

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

    def _all_reduce_and_step(self) -> None:
        """Average gradients across replicas, apply the same update to all."""
        params_per_worker = [w.model.params() for w in self.workers]
        n_params = len(params_per_worker[0])
        for pi in range(n_params):
            grads = [params_per_worker[k][pi][1] for k in range(self.world_size)]
            mean = np.mean(grads, axis=0)
            for g in grads:
                np.copyto(g, mean)
        for w in self.workers:
            w.optimizer.step()

    # ------------------------------------------------------------------
    def run(self) -> TrainResult:
        """Train all replicas synchronously; returns the run record."""
        cfg = self.config
        k = self.world_size
        first = self.workers[0]
        spec = first.model.spec
        costs = (
            StageCostModel.from_spec(spec)
            if spec is not None
            else StageCostModel(42.0, 35.0, 16.0)
        )
        result = TrainResult(
            policy_name=f"{first.policy.name}@dp{k}",
            model_name=spec.name if spec else "custom",
            dataset_name=self.train_set.name,
        )
        comm_factor = 2 * (k - 1) / k if k > 1 else 0.0
        val_accuracy = 0.0
        obs = self.observer
        run_span = None
        if obs.active:
            self._emit_run_start()
            run_span = obs.span_start(
                "run", first.clock.total_seconds,
                policy=result.policy_name, world_size=k,
            )
        client = self._shared_client()

        # In shared-cache mode every worker aliases one policy/store.
        policies = (
            [self.workers[0].policy] if self.shared_cache
            else [w.policy for w in self.workers]
        )
        clocks = (
            [self.workers[0].clock] if self.shared_cache
            else [w.clock for w in self.workers]
        )

        for epoch in range(cfg.epochs):
            epoch_span = None
            if obs.active:
                obs.set_epoch(epoch)
                epoch_span = obs.span_start("epoch", first.clock.total_seconds)
            for w in self.workers:
                w.optimizer.set_epoch(epoch)
            for p in policies:
                p.before_epoch(epoch)
            if client is not None:
                self._maybe_resize_shards(client, epoch)
            load_before = [c.stage_seconds(RemoteStore.STAGE) for c in clocks]
            # In wall-clock mode cache RPCs are measured on the client's
            # own WallClock, not charged to the shared simulated clock.
            rpc_clocks = (
                [client.clock] * len(clocks)
                if client is not None and cfg.clock_mode == "real"
                else clocks
            )
            rpc_before = [c.stage_seconds(RPC_STAGE) for c in rpc_clocks]
            stats_before = [
                (s.requests, s.hits + s.substitute_hits, s.hits,
                 s.substitute_hits)
                for s in (p.stats() for p in policies)
            ]
            if self.shared_cache:
                # One global importance order, split round-robin.
                order = self.workers[0].policy.epoch_order(epoch)
                iters = [
                    w.loader.iter_epoch(order[rank :: k])
                    for rank, w in enumerate(self.workers)
                ]
            else:
                iters = [
                    w.loader.iter_epoch(w.policy.epoch_order(epoch))
                    for w in self.workers
                ]
            epoch_loss, n_seen, n_steps = 0.0, 0, 0
            while True:
                batches = []
                for it in iters:
                    batches.append(next(it, None))
                live = [b for b in batches if b is not None]
                if not live:
                    break
                for w in self.workers:
                    w.optimizer.zero_grad()
                for w, batch in zip(self.workers, batches):
                    if batch is None:
                        continue  # uneven shard tails contribute zero grads
                    losses, emb = w.model.train_batch(batch.X, batch.y)
                    w.policy.after_batch(
                        batch.requested, batch.served, losses, emb, epoch
                    )
                    epoch_loss += float(losses.sum())
                    n_seen += len(batch)
                self._all_reduce_and_step()
                n_steps += 1

            # Stage accounting: straggler = slowest worker's load (sharded),
            # or total shared-store load divided across workers (shared).
            loads = [
                (c.stage_seconds(RemoteStore.STAGE) - b) / cfg.io_workers
                for c, b in zip(clocks, load_before)
            ]
            # Cache-protocol RPC time (sharded service only) is extra
            # data-path latency; like the shared-store load it is split
            # across the workers issuing the calls.
            rpcs = [
                (c.stage_seconds(RPC_STAGE) - b) / k
                for c, b in zip(rpc_clocks, rpc_before)
            ]
            data_load_s = (
                loads[0] / k + rpcs[0] if self.shared_cache
                else max(loads)
            )
            compute_s = n_steps * (costs.stage1_ms + costs.stage2_ms) / 1e3 * (
                (cfg.batch_size / k) / cfg.reference_batch
            )
            comm_s = n_steps * self.comm_ms_per_step / 1e3 * comm_factor
            mode = costs.recommended_mode()
            is_visible_s = n_steps * costs.visible_is_ms(mode) / 1e3

            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                val_accuracy, _ = first.model.evaluate(
                    self.test_set.X, self.test_set.y
                )
            for p in policies:
                p.after_epoch(epoch, val_accuracy)

            stats_after = [
                (s.requests, s.hits + s.substitute_hits, s.hits,
                 s.substitute_hits)
                for s in (p.stats() for p in policies)
            ]
            req = sum(a[0] - b[0] for a, b in zip(stats_after, stats_before))
            hit = sum(a[1] - b[1] for a, b in zip(stats_after, stats_before))
            exact = sum(a[2] - b[2] for a, b in zip(stats_after, stats_before))
            sub = sum(a[3] - b[3] for a, b in zip(stats_after, stats_before))

            em = EpochMetrics(
                epoch=epoch,
                train_loss=epoch_loss / max(n_seen, 1),
                val_accuracy=val_accuracy,
                hit_ratio=hit / req if req else 0.0,
                exact_hit_ratio=exact / req if req else 0.0,
                substitute_ratio=sub / req if req else 0.0,
                data_load_s=data_load_s,
                compute_s=compute_s,
                is_visible_s=is_visible_s,
                epoch_time_s=data_load_s + compute_s + comm_s + is_visible_s,
                imp_ratio=first.policy.imp_ratio,
            )
            result.epochs.append(em)
            if obs.active:
                obs.on_epoch_metrics(dataclasses.asdict(em))
                if client is not None:
                    obs.on_shards(client.shard_snapshots())
            if epoch_span is not None:
                obs.span_end(
                    epoch_span, first.clock.total_seconds, steps=n_steps
                )
        if run_span is not None:
            obs.span_end(
                run_span, first.clock.total_seconds,
                epochs=len(result.epochs),
            )
        self.close()
        return result

    def close(self) -> None:
        """Release wall-clock resources — the real transport's shard
        worker processes. No-op (and idempotent) for simulated runs."""
        if self.config.clock_mode != "real":
            return
        client = self._shared_client()
        if client is not None and hasattr(client, "close"):
            client.close()
