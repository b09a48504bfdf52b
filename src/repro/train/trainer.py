"""Training loop with simulated-time accounting.

Drives a NumPy model through a policy (SpiderCache or baseline) and charges
simulated time per the Fig.-2 pipeline:

* **data_load** — each remote miss costs the latency model's fetch time
  (charged by :class:`~repro.storage.backends.RemoteStore` itself), divided
  by ``io_workers`` concurrent loader processes; cache hits cost
  ``hit_latency_s`` each.
* **compute** — per batch: ``stage1 + stage2 * trained_fraction`` ms from
  the model spec (selective backprop shrinks Stage2, iCache's compute win).
* **is_visible** — the pipeline-overlap model's *visible* slice of the
  policy's IS cost (hidden entirely for short-IS models, Fig. 12).

Real wall-clock time is spent doing genuine forward/backward math — the
learning dynamics are real; only I/O and GPU-relative speeds are simulated.

The epoch loop is resumable: :meth:`Trainer._run_epoch` accepts a
pre-drawn order, a starting batch slot, and a partially-filled
:class:`EpochAccumulator`, and invokes a per-batch hook — the seams
:class:`~repro.resilience.trainer.ResilientTrainer` uses to checkpoint
mid-epoch and replay exactly after a simulated preemption. Compute and
IS time are charged to the clock *per batch* (same epoch totals) so
simulated time advances mid-epoch — letting outage windows end and
circuit-breaker cool-downs elapse between batches rather than only at
epoch boundaries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.semantic_cache import FetchSource
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
from repro.utils.rng import RngLike, resolve_rng

__all__ = ["Trainer", "TrainerConfig", "EpochAccumulator"]


@dataclass
class TrainerConfig:
    """Knobs for one training run."""

    epochs: int = 30
    batch_size: int = 128
    # "sim" (default): deterministic mode — SimClock time, the seeded
    # DeterministicScheduler executes prefetch slots, shard RPCs cross
    # the simulated channel; every run is bit-reproducible. "real":
    # wall-clock mode — prefetch slots run on real threads and the
    # shared sharded cache (if any) runs on real worker processes behind
    # RealRpcTransport; timings are measured, not modelled.
    clock_mode: str = "sim"
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    # LR schedule: None (constant), "cosine", "step", or a ready
    # schedule object from repro.nn.optim.
    lr_schedule: Optional[object] = None
    # Optional per-batch preprocessing/augmentation (repro.data.transforms);
    # its declared per-item cost is charged to the "preprocess" stage.
    transform: Optional[object] = None
    io_workers: int = 4  # concurrent loader processes dividing fetch latency
    # Prefetching loader threads; 0 keeps the serial DataLoader. When >0,
    # fetch latency is modelled by max-of-window overlap accounting instead
    # of the io_workers divisor (never both — that would double-count).
    prefetch_workers: int = 0
    hit_latency_s: float = 20e-6  # in-memory cache hit cost
    eval_every: int = 1
    reference_batch: int = 128  # batch size the Table-1 ms costs assume
    # Multi-worker cache topology (DataParallelTrainer only): one shared
    # logical cache instead of per-worker caches, optionally partitioned
    # across `cache_shards` shard servers behind simulated RPC.
    shared_cache: bool = False
    cache_shards: int = 0
    # Sharded-service fault-tolerance knobs (ignored when cache_shards=0):
    # per-call RPC deadline and total attempts per logical request (1
    # disables retries); backoff/jitter shape lives in
    # repro.dist.retry.RetryPolicy defaults.
    rpc_deadline_s: float = 0.01
    rpc_retry_budget: int = 3
    # Live ring resize: (epoch, new_shard_count) — at that epoch boundary
    # the shared client re-rings and migrates keys, draining incrementally
    # at each subsequent boundary if shards are faulting.
    resize_shards_at: Optional[Tuple[int, int]] = None

    def build_schedule(self):
        """Resolve ``lr_schedule`` into a schedule object (or None)."""
        from repro.nn.optim import CosineLR, StepLR

        if self.lr_schedule is None:
            return None
        if self.lr_schedule == "cosine":
            return CosineLR(self.lr, total_epochs=self.epochs)
        if self.lr_schedule == "step":
            return StepLR(self.lr, step_size=max(1, self.epochs // 3))
        if isinstance(self.lr_schedule, str):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        return self.lr_schedule


@dataclass
class EpochAccumulator:
    """Mid-epoch running totals — the restartable part of an epoch.

    Checkpointing this (plus the order array and the next batch slot) is
    what lets a preempted run resume mid-epoch and emit the exact
    :class:`~repro.train.metrics.EpochMetrics` an uninterrupted run would.
    """

    loss: float = 0.0
    n_seen: int = 0
    n_batches: int = 0  # non-empty (trained) batches
    compute_s: float = 0.0
    preprocess_s: float = 0.0
    hits: int = 0
    load_before_s: float = 0.0  # raw data_load stage total at epoch start
    stats_before: Tuple[int, int, int, int] = (0, 0, 0, 0)

    def state_dict(self) -> dict:
        """Serializable snapshot of the running totals."""
        return {
            "loss": self.loss,
            "n_seen": self.n_seen,
            "n_batches": self.n_batches,
            "compute_s": self.compute_s,
            "preprocess_s": self.preprocess_s,
            "hits": self.hits,
            "load_before_s": self.load_before_s,
            "stats_before": list(self.stats_before),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.loss = float(state["loss"])
        self.n_seen = int(state["n_seen"])
        self.n_batches = int(state["n_batches"])
        self.compute_s = float(state["compute_s"])
        self.preprocess_s = float(state["preprocess_s"])
        self.hits = int(state["hits"])
        self.load_before_s = float(state["load_before_s"])
        self.stats_before = tuple(int(x) for x in state["stats_before"])


class Trainer:
    """Runs ``model`` over ``train_set`` under ``policy``.

    The test set is evaluated every ``eval_every`` epochs; policies receive
    the latest accuracy in ``after_epoch`` (the Elastic Cache Manager's
    Accuracy Monitor input).
    """

    def __init__(
        self,
        model: Model,
        train_set: SyntheticDataset,
        test_set: SyntheticDataset,
        policy: TrainingPolicy,
        config: Optional[TrainerConfig] = None,
        latency: Optional[LatencyModel] = None,
        rng: RngLike = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.model = model
        self.train_set = train_set
        self.test_set = test_set
        self.policy = policy
        self.config = config or TrainerConfig()
        self._rng = resolve_rng(rng)
        self.observer = observer if observer is not None else NULL_OBSERVER

        self.clock = SimClock()
        self.store = RemoteStore(
            train_set.X,
            item_nbytes=train_set.item_nbytes,
            latency=latency or ConstantLatency(),
            clock=self.clock,
        )
        self.optimizer = SGD(
            model.params(),
            lr=self.config.lr,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
            schedule=self.config.build_schedule(),
        )
        embedding_dim = model.embedding_dim
        policy.setup(
            PolicyContext(
                dataset=train_set,
                store=self.store,
                batch_size=self.config.batch_size,
                total_epochs=self.config.epochs,
                embedding_dim=embedding_dim,
                rng=self._rng,
            )
        )
        if self.config.clock_mode not in ("sim", "real"):
            raise ValueError(
                f"clock_mode must be 'sim' or 'real', "
                f"got {self.config.clock_mode!r}"
            )
        if self.config.prefetch_workers > 0:
            from repro.data.prefetch import PrefetchingDataLoader

            self.loader: DataLoader = PrefetchingDataLoader(
                train_set.y,
                policy.fetch,
                batch_size=self.config.batch_size,
                workers=self.config.prefetch_workers,
                clock=self.clock,
                stage=RemoteStore.STAGE,
                observer=self.observer,
                # Deterministic (seeded-scheduler) slot execution in sim
                # mode; real threads only when the run is wall-clock.
                executor=(
                    "threads" if self.config.clock_mode == "real"
                    else "deterministic"
                ),
                fetch_many_fn=policy.fetch_many,
            )
        else:
            self.loader = DataLoader(
                train_set.y, policy.fetch, batch_size=self.config.batch_size,
                fetch_many_fn=policy.fetch_many,
            )
        self._val_accuracy = 0.0
        self._attach_observer()

    # ------------------------------------------------------------------
    def _attach_observer(self) -> None:
        """Wire ``self.observer`` through the store stack and the policy.

        Idempotent; re-run at the top of :meth:`run` because tests and
        the resilience layer wrap ``self.store`` after construction.
        """
        obs = self.observer
        if not obs.active:
            return
        obs.hit_latency_s = self.config.hit_latency_s
        store = self.store
        while True:
            # Duck-typed walk (isinstance on resilience types would cycle
            # imports): a wrapper owning a circuit breaker exposes it in
            # its own __dict__; __getattr__ forwarding is bypassed so each
            # breaker attaches exactly once.
            breaker = store.__dict__.get("breaker")
            if breaker is not None and hasattr(breaker, "attach_observer"):
                breaker.attach_observer(obs)
            inner = store.__dict__.get("inner")
            if inner is None:
                break
            store = inner
        if hasattr(store, "attach_observer"):
            store.attach_observer(obs)
        if hasattr(self.loader, "attach_observer"):
            self.loader.attach_observer(obs)
        self.policy.attach_observer(obs)

    # ------------------------------------------------------------------
    def _stage_costs(self) -> StageCostModel:
        spec = self.model.spec
        policy_is = self.policy.is_ms_per_batch  # None = defer to the spec
        if spec is not None:
            costs = StageCostModel.from_spec(spec)
            if policy_is is not None:
                costs = StageCostModel(costs.stage1_ms, costs.stage2_ms,
                                       policy_is)
            return costs
        return StageCostModel(42.0, 35.0,
                              16.0 if policy_is is None else policy_is)

    def _new_result(self) -> TrainResult:
        return TrainResult(
            policy_name=self.policy.name,
            model_name=self.model.spec.name if self.model.spec else "custom",
            dataset_name=self.train_set.name,
        )

    def _emit_run_start(self) -> None:
        """Record the run configuration in the trace (aggregators need
        ``io_workers``/``hit_latency_s`` to reproduce stage times)."""
        if not self.observer.active:
            return
        cfg = self.config
        self.observer.on_run_start({
            "policy": self.policy.name,
            "model": self.model.spec.name if self.model.spec else "custom",
            "dataset": self.train_set.name,
            "epochs": cfg.epochs,
            "batch_size": cfg.batch_size,
            "io_workers": cfg.io_workers,
            "prefetch_workers": cfg.prefetch_workers,
            "hit_latency_s": cfg.hit_latency_s,
        })

    def run(self) -> TrainResult:
        """Train for ``config.epochs`` epochs; returns the full run record."""
        self._attach_observer()
        obs = self.observer
        run_span = None
        if obs.active:
            self._emit_run_start()
            run_span = obs.span_start(
                "run", self.clock.total_seconds, policy=self.policy.name
            )
        result = self._new_result()
        for epoch in range(self.config.epochs):
            self._run_epoch(epoch, result)
        if run_span is not None:
            obs.span_end(
                run_span, self.clock.total_seconds, epochs=len(result.epochs)
            )
        return result

    # ------------------------------------------------------------------
    def _run_epoch(
        self,
        epoch: int,
        result: TrainResult,
        order: Optional[np.ndarray] = None,
        start_batch: int = 0,
        acc: Optional[EpochAccumulator] = None,
        batch_hook: Optional[
            Callable[[int, int, np.ndarray, "EpochAccumulator"], None]
        ] = None,
    ) -> None:
        """One epoch, optionally resumed from batch slot ``start_batch``.

        A fresh epoch (``order is None``) runs the policy's ``before_epoch``
        hook and draws the order; a resumed one must pass the checkpointed
        ``order``/``acc`` (the hook already ran in the original timeline —
        its effects live in the restored policy state). ``batch_hook`` fires
        after every batch slot — substituted or skipped alike — with
        ``(epoch, slot, order, acc)``; resilience layers preempt and
        checkpoint from it.
        """
        cfg = self.config
        costs = self._stage_costs()
        visible_is_per_batch_ms = costs.visible_is_ms(costs.recommended_mode())

        obs = self.observer
        epoch_span = None
        if obs.active:
            obs.set_epoch(epoch)
            epoch_span = obs.span_start("epoch", self.clock.total_seconds)
        self.optimizer.set_epoch(epoch)
        if order is None:
            self.policy.before_epoch(epoch)
            order = self.policy.epoch_order(epoch)
        if acc is None:
            acc = EpochAccumulator(
                load_before_s=self.clock.stage_seconds(RemoteStore.STAGE),
                stats_before=_snapshot(self.policy),
            )

        for slot in range(start_batch, self.loader.n_batches(order)):
            batch_span = None
            if obs.active:
                t_slot = self.clock.total_seconds
                batch_span = obs.span_start("batch", t_slot, slot=slot)
            batch = self.loader.collate(self.loader.batch_ids(order, slot))
            if obs.active:
                t_loaded = self.clock.total_seconds
                if t_loaded > t_slot:
                    obs.span_record("data_load", t_slot, t_loaded, slot=slot)
            if batch is not None:
                self._train_batch(
                    batch, epoch, acc, costs, visible_is_per_batch_ms,
                    slot=slot,
                )
            if batch_span is not None:
                obs.span_end(batch_span, self.clock.total_seconds)
            if batch_hook is not None:
                batch_hook(epoch, slot, order, acc)

        # Stage accounting for the epoch (compute/IS/preprocess were
        # already charged to the clock per batch).
        raw_load_s = self.clock.stage_seconds(RemoteStore.STAGE) - acc.load_before_s
        # With prefetching the raw total is already overlap-charged
        # (max-of-window); dividing it by io_workers again would model
        # the same parallelism twice.
        load_div = 1 if cfg.prefetch_workers > 0 else cfg.io_workers
        data_load_s = raw_load_s / load_div + acc.hits * cfg.hit_latency_s
        is_visible_s = acc.n_batches * visible_is_per_batch_ms / 1e3

        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            self._val_accuracy, _ = self.model.evaluate(
                self.test_set.X, self.test_set.y
            )
        self.policy.after_epoch(epoch, self._val_accuracy)

        stats_after = _snapshot(self.policy)
        d_req = stats_after[0] - acc.stats_before[0]
        d_hit = stats_after[1] - acc.stats_before[1]
        d_exact = stats_after[2] - acc.stats_before[2]
        d_sub = stats_after[3] - acc.stats_before[3]
        hit_ratio = d_hit / d_req if d_req else 0.0
        exact_ratio = d_exact / d_req if d_req else 0.0
        sub_ratio = d_sub / d_req if d_req else 0.0

        score_std = None
        table = getattr(self.policy, "score_table", None)
        if table is not None and table.std_history:
            score_std = table.std_history[-1]

        em = EpochMetrics(
            epoch=epoch,
            train_loss=acc.loss / max(acc.n_seen, 1),
            val_accuracy=self._val_accuracy,
            hit_ratio=hit_ratio,
            exact_hit_ratio=exact_ratio,
            substitute_ratio=sub_ratio,
            data_load_s=data_load_s,
            compute_s=acc.compute_s,
            is_visible_s=is_visible_s,
            epoch_time_s=(
                data_load_s + acc.compute_s + is_visible_s
                + acc.preprocess_s
            ),
            imp_ratio=self.policy.imp_ratio,
            score_std=score_std,
            preprocess_s=acc.preprocess_s,
        )
        result.epochs.append(em)
        if obs.active:
            obs.on_epoch_metrics(dataclasses.asdict(em))
        if epoch_span is not None:
            obs.span_end(
                epoch_span, self.clock.total_seconds, batches=acc.n_batches
            )

    def _train_batch(
        self,
        batch,
        epoch: int,
        acc: EpochAccumulator,
        costs: StageCostModel,
        visible_is_per_batch_ms: float,
        slot: int = 0,
    ) -> None:
        cfg = self.config
        transform = cfg.transform
        self.optimizer.zero_grad()
        x = batch.X
        batch_preprocess_s = 0.0
        if transform is not None:
            x = transform(x, training=True)
            batch_preprocess_s = transform.cost_us_per_item * len(batch) / 1e6
            acc.preprocess_s += batch_preprocess_s
        trained_fraction = 1.0
        # One forward/backward pass; policies that mask backprop (iCache)
        # need the losses first, so their path re-runs the pass with the
        # per-sample weights applied.
        losses, emb = self.model.train_batch(x, batch.y)
        mask = self.policy.backprop_mask(batch.served, losses)
        if mask is not None:
            # Re-run with weights (the probe above already consumed the
            # layer caches, so gradients must be rebuilt).
            self.optimizer.zero_grad()
            losses, emb = self.model.train_batch(x, batch.y, mask)
            trained_fraction = float(np.mean(mask > 0))
        self.optimizer.step()

        self.policy.after_batch(
            batch.requested, batch.served, losses, emb, epoch
        )

        acc.loss += float(losses.sum())
        acc.n_seen += len(batch)
        acc.n_batches += 1
        acc.hits += sum(1 for s in batch.sources if s != FetchSource.REMOTE)
        scale = len(batch) / cfg.reference_batch
        batch_compute_s = (
            costs.stage1_ms + costs.stage2_ms * trained_fraction
        ) / 1e3 * scale
        acc.compute_s += batch_compute_s
        obs = self.observer
        t0 = self.clock.total_seconds if obs.active else 0.0
        self.clock.advance("compute", batch_compute_s)
        self.clock.advance("is_visible", visible_is_per_batch_ms / 1e3)
        if batch_preprocess_s:
            self.clock.advance("preprocess", batch_preprocess_s)
        if obs.active:
            # The advance amounts are known, so stage span bounds are
            # derived arithmetically from one clock read.
            t1 = t0 + batch_compute_s
            t2 = t1 + visible_is_per_batch_ms / 1e3
            obs.span_record("compute", t0, t1, slot=slot)
            obs.span_record("is_visible", t1, t2, slot=slot)
            if batch_preprocess_s:
                obs.span_record(
                    "preprocess", t2, t2 + batch_preprocess_s, slot=slot
                )
        if self.observer.active:
            self.observer.on_batch(
                slot,
                len(batch),
                trained_fraction,
                batch_compute_s,
                batch_preprocess_s,
                visible_is_per_batch_ms / 1e3,
            )


def _snapshot(policy: TrainingPolicy):
    s = policy.stats()
    return (
        s.requests,
        s.hits + s.substitute_hits,
        s.hits,
        s.substitute_hits,
    )
