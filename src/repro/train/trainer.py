"""The epoch loop — one, for every topology — with simulated-time accounting.

This file owns the loop. :class:`EpochRunner` trains a list of replicas
(:class:`WorkerState`) in lock step; the public trainers only build that
list: :class:`Trainer` one replica,
:class:`~repro.train.data_parallel.DataParallelTrainer` ``world_size`` of
them, and ``world_size=1`` is the same arithmetic term for term. DESIGN.md
§3.3 has the step order and the stage formula per topology. In short,
simulated time follows the Fig.-2 pipeline: **data_load** (remote misses,
charged by :class:`~repro.storage.backends.RemoteStore` and divided by
``IO_WORKERS``, plus ``HIT_LATENCY_S`` per cache hit; a step waits for its
slowest rank), **compute** (``stage1 + stage2 * trained_fraction`` ms from
the model spec — selective backprop shrinks Stage2, iCache's compute win),
**is_visible** (the slice of the policy's IS cost the Fig. 12 overlap does
not hide) and, for several replicas, **comm**.

Real wall-clock time is spent doing genuine forward/backward math — the
learning dynamics are real; only I/O and GPU-relative speeds are simulated.
Compute and IS are charged to the clock *per step* so simulated
time advances mid-epoch — outage windows end and circuit-breaker cool-downs
elapse between batches. The loop is resumable: :meth:`EpochRunner._run_epochs`
starts from an ``(epoch, batch slot)`` cursor with pre-drawn orders and a
partially-filled :class:`EpochAccumulator`, and fires a per-slot hook — the
seams :class:`~repro.resilience.trainer.ResilientTrainer` checkpoints and
replays through, inside the one :meth:`EpochRunner.run`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.cache.base import FetchSource
from repro.data.loader import Batch, DataLoader
from repro.data.synthetic import SyntheticDataset
from repro.nn.models import Model
from repro.nn.optim import SGD, CosineLR
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.train.metrics import (
    HIT_LATENCY_S, IO_WORKERS, EpochMetrics, TrainResult, data_load_seconds,
)
from repro.train.pipeline import REFERENCE_BATCH, StageCostModel
from repro.train.policy_base import PolicyContext, TrainingPolicy
from repro.utils.rng import RngLike, resolve_rng

__all__ = [
    "Trainer", "TrainerConfig", "EpochRunner", "EpochAccumulator", "WorkerState",
]

#: SimClock stage the cache-protocol RPC tier charges. Mirrors
#: ``repro.dist.rpc.Transport.STAGE`` without importing it: ``repro.dist``
#: pulls in ``multiprocessing`` (44-49 ms of set-up on a 2-vCPU Xeon), so
#: it is imported only at shard-client construction
#: (``DataParallelTrainer._make_shard_client``).
RPC_STAGE = "rpc"

#: ``clock_mode="real"`` selects the shard transport; a run without a
#: sharded cache has none, so both trainers reject it with this message.
UNSHARDED_REAL = (
    "clock_mode='real' selects the shard-tier transport and needs "
    "cache_shards > 0 (--transport real needs --cache-shards)"
)


@dataclass
class TrainerConfig:
    """Knobs for one training run."""

    epochs: int = 30
    batch_size: int = 128
    # Shard-tier transport. "sim" (default): shard RPCs cross the
    # in-process simulated channel. "real": the shard servers run in
    # worker processes behind RealRpcTransport. Both charge the same
    # modelled RPC time to the run's SimClock, so a fault-free run's
    # metrics are identical either way. Only a sharded cache
    # (cache_shards > 0) has a transport to select, so "real" without
    # one is rejected.
    clock_mode: str = "sim"
    lr: float = 0.05
    # LR schedule: None (constant) or "cosine".
    lr_schedule: Optional[str] = None
    # Multi-worker cache topology (DataParallelTrainer only): one shared
    # logical cache instead of per-worker caches, optionally partitioned
    # across `cache_shards` shard servers behind simulated RPC.
    shared_cache: bool = False
    cache_shards: int = 0
    # Sharded-service fault-tolerance knobs (rejected off their defaults
    # when cache_shards=0): per-call RPC deadline and total attempts per
    # logical request (1 disables retries); backoff/jitter shape lives in
    # repro.dist.retry.RetryPolicy defaults.
    rpc_deadline_s: float = 0.01
    rpc_retry_budget: int = 3

    def build_schedule(self):
        """Resolve ``lr_schedule`` into a schedule object (or None)."""
        if self.lr_schedule is None:
            return None
        if self.lr_schedule == "cosine":
            return CosineLR(self.lr, total_epochs=self.epochs)
        raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")

    def reject_unsharded_rpc(self) -> None:
        """Refuse RPC knobs off their defaults: a run without a shard tier
        (``cache_shards == 0``) makes no cache-protocol RPCs."""
        for name, flag in (
            ("rpc_deadline_s", "--rpc-deadline-ms"),
            ("rpc_retry_budget", "--rpc-retry-budget"),
        ):
            if getattr(self, name) != getattr(TrainerConfig, name):
                raise ValueError(
                    f"{name} configures the shard tier's RPCs and needs "
                    f"cache_shards > 0 ({flag} needs --cache-shards)"
                )


@dataclass
class WorkerState:
    """One rank's replica, shard, policy, and loader (ranks of a
    shared-cache run alias one policy, store and clock)."""

    rank: int
    shard: np.ndarray  # global sample ids owned by this worker
    model: Model
    policy: TrainingPolicy
    store: RemoteStore
    clock: SimClock
    loader: DataLoader
    optimizer: SGD


@dataclass
class EpochAccumulator:
    """Mid-epoch running totals — the restartable part of an epoch.

    Checkpointing this (plus the order arrays and the next batch slot) is
    what lets a preempted run resume mid-epoch and emit the exact
    :class:`~repro.train.metrics.EpochMetrics` an uninterrupted run would.
    """

    loss: float = 0.0
    n_seen: int = 0
    n_batches: int = 0  # steps in which at least one rank trained
    compute_s: float = 0.0
    hits: List[int] = field(default_factory=list)  # per rank: cache serves
    # Per distinct clock: the raw data_load stage total at epoch start.
    load_before_s: List[float] = field(default_factory=list)
    rpc_before_s: float = 0.0
    stats_before: Tuple[int, ...] = (0, 0, 0, 0)  # _request_counts() at epoch start


class EpochRunner:
    """Trains ``self.workers`` synchronously — the loop behind every trainer.

    Subclasses build the topology (:meth:`_setup_policy` then
    :meth:`_add_replica` per rank) and may override the epoch-boundary seams
    below. The test set is evaluated on rank 0 every epoch; policies
    receive the accuracy in ``after_epoch`` (the Elastic Cache Manager's
    Accuracy Monitor input).
    """

    #: All-reduce cost per step at 2 workers (ms); the loop scales it by
    #: ``2 (K-1)/K``, so a single worker pays nothing.
    comm_ms_per_step = 8.0

    def __init__(
        self, train_set: SyntheticDataset, test_set: SyntheticDataset,
        config: Optional[TrainerConfig], observer: Optional[Observer],
        rng: RngLike,
    ) -> None:
        self.train_set = train_set
        self.test_set = test_set
        self.config = cfg = config or TrainerConfig()
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.workers: List[WorkerState] = []
        self._rng = resolve_rng(rng)
        if cfg.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {cfg.epochs}")
        if cfg.clock_mode not in ("sim", "real"):
            raise ValueError(
                f"clock_mode must be 'sim' or 'real', got {cfg.clock_mode!r}"
            )

    # -- topology ----------------------------------------------------------
    def _setup_policy(
        self, policy: TrainingPolicy, model: Model, dataset: SyntheticDataset,
        clock: SimClock,
    ) -> RemoteStore:
        """Bind ``policy`` to a new remote store over ``dataset``."""
        store = RemoteStore(dataset.X, item_nbytes=dataset.item_nbytes, clock=clock)
        policy.setup(PolicyContext(
            dataset=dataset, store=store, total_epochs=self.config.epochs,
            embedding_dim=model.embedding_dim,
        ))
        return store

    def _add_replica(
        self, shard: np.ndarray, model: Model, policy: TrainingPolicy,
        store: RemoteStore, labels: np.ndarray, batch_size: int,
    ) -> None:
        """Append the next rank; its optimizer and loader follow the config."""
        cfg = self.config
        optimizer = SGD(
            model.params(), lr=cfg.lr, momentum=0.9,
            schedule=cfg.build_schedule(),
        )
        loader = DataLoader(labels, policy.fetch_many, batch_size=batch_size)
        self.workers.append(WorkerState(
            len(self.workers), shard, model, policy, store, store.clock,
            loader, optimizer,
        ))

    def _attach_observer(self) -> None:
        """Wire ``self.observer`` through the stores (and their breakers)
        and the policies.

        Idempotent; re-run at the top of :meth:`run` because a fault
        campaign assigns a store's breaker after construction.
        """
        obs = self.observer
        if not obs.active:
            return
        obs.hit_latency_s = HIT_LATENCY_S
        for store in _unique(w.store for w in self.workers):
            store.attach_observer(obs)
        for policy in self._policies():
            policy.attach_observer(obs)

    def _policies(self) -> List[TrainingPolicy]:
        return _unique(w.policy for w in self.workers)

    def _clocks(self) -> List[SimClock]:
        return _unique(w.clock for w in self.workers)

    def _request_counts(self) -> np.ndarray:
        """(requests, hits incl. substitutes, exact hits, substitute hits),
        summed over the distinct policies."""
        return np.sum([
            (s.requests, s.hits + s.substitute_hits, s.hits, s.substitute_hits)
            for s in (policy.stats() for policy in self._policies())
        ], axis=0)

    # -- seams a topology may override ---------------------------------------
    def _on_epoch_end(self, epoch: int) -> None:
        """After the epoch's metrics are recorded."""

    def _run_meta(self, result: TrainResult) -> dict:
        """The run configuration the trace's ``run_start`` event records
        (aggregators need ``io_workers``/``hit_latency_s`` to reproduce
        stage times)."""
        cfg = self.config
        return {
            "policy": self.workers[0].policy.name, "model": result.model_name,
            "dataset": result.dataset_name, "epochs": cfg.epochs,
            "batch_size": cfg.batch_size, "io_workers": IO_WORKERS,
            "hit_latency_s": HIT_LATENCY_S,
        }

    def _new_result(self) -> TrainResult:
        first = self.workers[0]
        return TrainResult(
            policy_name=first.policy.name,
            model_name=first.model.spec.name if first.model.spec else "custom",
            dataset_name=self.train_set.name,
        )

    # ------------------------------------------------------------------------
    def _stage_costs(self) -> StageCostModel:
        first = self.workers[0]
        spec = first.model.spec
        costs = (
            StageCostModel.from_spec(spec) if spec is not None
            else StageCostModel(42.0, 35.0, 16.0)
        )
        policy_is = first.policy.is_ms_per_batch  # None = defer to the spec
        if policy_is is not None:
            costs = dataclasses.replace(costs, is_ms=policy_is)
        return costs

    def run(self) -> TrainResult:
        """Train for ``config.epochs`` epochs; returns the full run record."""
        self._attach_observer()
        obs = self.observer
        clock = self.workers[0].clock
        result = self._new_result()
        run_span = None
        if obs.active:
            obs.on_run_start(self._run_meta(result))
            run_span = obs.span_start(
                "run", clock.total_seconds, policy=result.policy_name
            )
        self._run_epochs(result)
        if run_span is not None:
            obs.span_end(run_span, clock.total_seconds, epochs=len(result.epochs))
        return result

    def _run_epochs(
        self, result: TrainResult, cursor: Tuple[int, int] = (0, 0),
        orders: Optional[List[np.ndarray]] = None,
        acc: Optional[EpochAccumulator] = None,
        batch_hook: Optional[Callable] = None,
    ) -> None:
        """The epochs from ``cursor = (epoch, batch slot)`` to the last —
        the seam a resilience layer restores and retries around.

        A cursor inside an epoch resumes it with the checkpointed
        ``orders``/``acc``; the epochs after it start fresh.
        """
        first, start_batch = cursor
        for epoch in range(first, self.config.epochs):
            self._run_epoch(epoch, result, orders, start_batch, acc, batch_hook)
            orders, start_batch, acc = None, 0, None

    def _run_epoch(
        self, epoch: int, result: TrainResult,
        orders: Optional[List[np.ndarray]] = None, start_batch: int = 0,
        acc: Optional[EpochAccumulator] = None,
        batch_hook: Optional[Callable] = None,
    ) -> None:
        """One epoch, optionally resumed from batch slot ``start_batch``.

        A fresh epoch (``orders is None``) runs the policies' ``before_epoch``
        hooks and draws each rank's order; a resumed one must pass the
        checkpointed ``orders``/``acc`` (the hooks already ran in the original
        timeline — their effects live in the restored policy state).
        ``batch_hook`` fires after every batch slot — substituted or skipped
        alike — with ``(epoch, slot, orders, acc)``; resilience layers preempt
        and checkpoint from it.
        """
        workers, policies, clocks = self.workers, self._policies(), self._clocks()
        clock = workers[0].clock
        costs = self._stage_costs()
        obs = self.observer
        epoch_span = None
        if obs.active:
            obs.set_epoch(epoch)
            epoch_span = obs.span_start("epoch", clock.total_seconds)
        for w in workers:
            w.optimizer.set_epoch(epoch)
        if acc is None:
            acc = EpochAccumulator(
                hits=[0] * len(workers),
                load_before_s=[c.stage_seconds(RemoteStore.STAGE) for c in clocks],
                rpc_before_s=clock.stage_seconds(RPC_STAGE),
                stats_before=tuple(self._request_counts().tolist()),
            )
        if orders is None:
            # After the snapshot: a prefetch's reads count in the epoch
            # they warm, the one the trace stamps them with.
            for policy in policies:
                policy.before_epoch(epoch)
            # Ranks sharing a policy split its one global importance order
            # round-robin.
            orders = [np.empty(0, dtype=np.int64)] * len(workers)
            for policy in policies:
                ranks = [w.rank for w in workers if w.policy is policy]
                order = policy.epoch_order(epoch)
                for j, rank in enumerate(ranks):
                    orders[rank] = order[j :: len(ranks)]

        n_slots = max(w.loader.n_batches(o) for w, o in zip(workers, orders))
        for slot in range(start_batch, n_slots):
            self._step(epoch, slot, orders, acc, costs)
            if batch_hook is not None:
                batch_hook(epoch, slot, orders, acc)

        em = self._epoch_metrics(epoch, acc, costs)
        result.epochs.append(em)
        if obs.active:
            obs.on_epoch_metrics(dataclasses.asdict(em))
        self._on_epoch_end(epoch)
        if epoch_span is not None:
            obs.span_end(epoch_span, clock.total_seconds, batches=acc.n_batches)

    def _step(
        self, epoch: int, slot: int, orders: List[np.ndarray],
        acc: EpochAccumulator, costs: StageCostModel,
    ) -> None:
        """Batch slot ``slot`` on every rank: collate, then train."""
        workers, obs = self.workers, self.observer
        clock = workers[0].clock  # the span timeline
        batch_span = None
        if obs.active:
            t_slot = clock.total_seconds
            batch_span = obs.span_start("batch", t_slot, slot=slot)
        # Every rank collates before any rank trains: with a shared cache
        # the fetch order across ranks decides hits and evictions. A rank
        # whose order ran out (uneven tails) sits the step out.
        live = []
        for w, order in zip(workers, orders):
            ids = w.loader.batch_ids(order, slot)
            batch = w.loader.collate(ids) if len(ids) else None
            if batch is not None:
                live.append((w, batch))
        if obs.active:
            t_loaded = clock.total_seconds
            if t_loaded > t_slot:
                obs.span_record("data_load", t_slot, t_loaded, slot=slot)
        if live:
            self._train(epoch, slot, live, acc, costs)
        if batch_span is not None:
            obs.span_end(batch_span, clock.total_seconds)

    def _train(
        self, epoch: int, slot: int, live: List[Tuple[WorkerState, Batch]],
        acc: EpochAccumulator, costs: StageCostModel,
    ) -> None:
        """The live ranks' forward/backward, one synchronized update, one
        charge per clock."""
        workers, obs = self.workers, self.observer
        for w in workers:
            w.optimizer.zero_grad()
        # Ranks run in parallel: the step costs what its slowest rank costs.
        compute_s = 0.0
        size = trained = 0
        for w, batch in live:
            n = len(batch)
            # One forward/backward pass; policies that mask backprop (iCache)
            # need the losses first, so their path re-runs the pass with the
            # per-sample weights applied.
            n_trained = n
            losses, emb = w.model.train_batch(batch.X, batch.y)
            mask = w.policy.backprop_mask(batch.served, losses)
            if mask is not None:
                # Re-run with weights (the probe above already consumed the
                # layer caches, so gradients must be rebuilt).
                w.optimizer.zero_grad()
                losses, emb = w.model.train_batch(batch.X, batch.y, mask)
                n_trained = int(np.count_nonzero(mask > 0))
            w.policy.after_batch(batch.requested, batch.served, losses, emb, epoch)
            acc.loss += float(losses.sum())
            acc.n_seen += n
            acc.hits[w.rank] += n - batch.sources.count(FetchSource.REMOTE)
            scale = n / REFERENCE_BATCH
            rank_compute_s = (
                costs.stage1_ms + costs.stage2_ms * (n_trained / n)
            ) / 1e3 * scale
            compute_s = max(compute_s, rank_compute_s)
            size += n
            trained += n_trained
        if len(workers) > 1:
            _average_gradients(workers)
        for w in workers:
            w.optimizer.step()

        is_visible_s = costs.visible_is_ms(costs.recommended_mode()) / 1e3
        acc.n_batches += 1
        acc.compute_s += compute_s
        t0 = workers[0].clock.total_seconds if obs.active else 0.0
        for c in self._clocks():
            c.advance("compute", compute_s)
            c.advance("is_visible", is_visible_s)
        if obs.active:
            # The advance amounts are known, so stage span bounds are
            # derived arithmetically from one clock read.
            t1 = t0 + compute_s
            obs.span_record("compute", t0, t1, slot=slot)
            obs.span_record("is_visible", t1, t1 + is_visible_s, slot=slot)
            obs.on_batch(slot, size, trained / size, compute_s, is_visible_s)

    def _epoch_metrics(
        self, epoch: int, acc: EpochAccumulator, costs: StageCostModel
    ) -> EpochMetrics:
        """Close the epoch: the stage accounting (compute and IS were
        already charged to the clocks per step), evaluation, the policies'
        ``after_epoch``, hit ratios."""
        policies, clocks = self._policies(), self._clocks()
        first = self.workers[0]
        k = len(self.workers)
        loads = [
            data_load_seconds(
                c.stage_seconds(RemoteStore.STAGE) - before,
                sum(acc.hits[w.rank] for w in self.workers if w.clock is c),
                IO_WORKERS, HIT_LATENCY_S,
            )
            for c, before in zip(clocks, acc.load_before_s)
        ]
        rpc_s = first.clock.stage_seconds(RPC_STAGE) - acc.rpc_before_s
        # A clock shared by m ranks holds their serial sum and they load in
        # parallel (divide by m); the step waits for the slowest clock.
        data_load_s = max(loads) / (k // len(clocks)) + rpc_s / k
        is_visible_s = (
            acc.n_batches * costs.visible_is_ms(costs.recommended_mode()) / 1e3
        )
        comm_s = acc.n_batches * self.comm_ms_per_step / 1e3 * (2 * (k - 1) / k)

        val_accuracy, _ = first.model.evaluate(self.test_set.X, self.test_set.y)
        for policy in policies:
            policy.after_epoch(epoch, val_accuracy)

        d_req, d_hit, d_exact, d_sub = (
            self._request_counts() - acc.stats_before
        ).tolist()
        score_std = None
        table = getattr(first.policy, "score_table", None)
        if table is not None and table.std_history:
            score_std = table.std_history[-1]
        return EpochMetrics(
            epoch=epoch,
            train_loss=acc.loss / max(acc.n_seen, 1),
            val_accuracy=val_accuracy,
            hit_ratio=d_hit / d_req if d_req else 0.0,
            exact_hit_ratio=d_exact / d_req if d_req else 0.0,
            substitute_ratio=d_sub / d_req if d_req else 0.0,
            data_load_s=data_load_s,
            compute_s=acc.compute_s,
            is_visible_s=is_visible_s,
            epoch_time_s=data_load_s + acc.compute_s + is_visible_s + comm_s,
            imp_ratio=first.policy.imp_ratio,
            score_std=score_std,
            comm_s=comm_s,
        )


def _of_first(name: str) -> property:
    """A replica-0 attribute, readable on the trainer."""
    return property(lambda self: getattr(self.workers[0], name))


class Trainer(EpochRunner):
    """Runs ``model`` over ``train_set`` under ``policy``: the one-replica
    topology."""

    model = _of_first("model")
    policy = _of_first("policy")
    store = _of_first("store")
    clock = _of_first("clock")
    loader = _of_first("loader")
    optimizer = _of_first("optimizer")

    def __init__(
        self,
        model: Model,
        train_set: SyntheticDataset,
        test_set: SyntheticDataset,
        policy: TrainingPolicy,
        config: Optional[TrainerConfig] = None,
        rng: RngLike = None,
        observer: Optional[Observer] = None,
    ) -> None:
        super().__init__(train_set, test_set, config, observer, rng)
        cfg = self.config
        if cfg.shared_cache or cfg.cache_shards:
            raise ValueError(
                "shared_cache / cache_shards configure a "
                "shared cache tier; use DataParallelTrainer(world_size=1, "
                "...), which honours them"
            )
        if cfg.clock_mode == "real":
            raise ValueError(UNSHARDED_REAL)
        cfg.reject_unsharded_rpc()
        store = self._setup_policy(policy, model, train_set, SimClock())
        self._add_replica(
            np.arange(len(train_set)), model, policy, store, train_set.y,
            cfg.batch_size,
        )
        self._attach_observer()


def _unique(items: Iterable) -> list:
    """``items`` without repeats of the same object, in first-seen order."""
    return list({id(item): item for item in items}.values())


def _average_gradients(workers: List[WorkerState]) -> None:
    """All-reduce: every replica's gradients become the mean over all ranks
    (a rank that sat the step out contributes zeros)."""
    for grads in zip(*([g for _, g in w.model.params()] for w in workers)):
        mean = np.mean(grads, axis=0)
        for g in grads:
            np.copyto(g, mean)
