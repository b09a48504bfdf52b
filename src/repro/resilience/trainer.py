"""Checkpoint-restart training on preemptible (simulated) infrastructure.

:class:`ResilientTrainer` wraps the base epoch loop with the full
spot-VM survival kit:

* **auto-checkpointing** — every ``checkpoint_every_batches`` batch slots
  (and at each epoch boundary) the *entire* training runtime is
  snapshotted through one :func:`~repro.resilience.state.save_state`
  archive: model parameters, optimizer momentum, the policy's caches,
  score table, elastic-manager history and RNG streams, the simulated
  clock, store counters, and the mid-epoch cursor (epoch, next batch
  slot, order array, running accumulators);
* **preemption recovery** — a :class:`~repro.resilience.preemption.PreemptionSchedule`
  raises :class:`~repro.resilience.preemption.PreemptionError` from the
  per-batch hook; the trainer catches it, restores the latest checkpoint,
  optionally charges a ``restart_penalty_s`` to a dedicated ``recovery``
  clock stage, and replays from the cursor;
* **exact resume** — because every source of nondeterminism is in the
  snapshot (heap tie-break counters, RNG bit-generator states, dict
  orders), the recovered run's parameter trajectory and cache contents
  are *bit-for-bit identical* to an uninterrupted run's. Tests assert
  this.

A killed process can also resume: construct a fresh ``ResilientTrainer``
with the same configuration and ``resume=True`` and it picks up from the
newest archive in ``checkpoint_dir``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.resilience.preemption import PreemptionError, PreemptionSchedule
from repro.resilience.state import CheckpointError, load_state, save_state
from repro.train.metrics import EpochMetrics, TrainResult
from repro.train.trainer import EpochAccumulator, Trainer

__all__ = ["ResilientTrainer", "RecoveryStats", "RECOVERY_STAGE"]

#: Version of the checkpoint tree :class:`ResilientTrainer` writes; a
#: restore refuses any other (format 8: the importance and homophily
#: layers snapshot through ``Cache.state_dict`` like every layer, their
#: heap entries and neighbor lists under ``order``; format 7: the cache
#: snapshot keeps ``skipped`` and ``errors_absorbed`` at its top level
#: instead of a ``degraded`` record; format 6: the HNSW snapshot no longer
#: carries ``ef_search``; format 5: every policy's ``cache`` is a
#: ``SemanticCache`` snapshot with one entry per layer, keyed by the
#: layer's source; format 4 dropped the accumulator's ``preprocess_s``
#: and the carried ``val_accuracy``).
CHECKPOINT_FORMAT = 8

#: Checkpoint archives retained; older ones are pruned.
KEEP_LAST = 3

#: SimClock stage that restart penalties are charged to, kept separate from
#: the Fig.-2 pipeline stages so recovery overhead is reportable on its own.
RECOVERY_STAGE = "recovery"


@dataclass
class RecoveryStats:
    """What fault recovery cost this run."""

    restarts: int = 0
    replayed_batches: int = 0  # batch slots re-run after restores
    lost_s: float = 0.0  # simulated progress discarded at preemptions
    checkpoints_written: int = 0


class ResilientTrainer(Trainer):
    """A :class:`Trainer` that survives injected preemptions.

    Parameters
    ----------
    checkpoint_dir:
        Directory for ``ckpt-NNNNNN.npz`` archives (created on demand).
    checkpoint_every_batches:
        Auto-checkpoint cadence in batch slots; ``0`` disables the
        mid-epoch cadence (epoch-boundary checkpoints still happen).
    preemptions:
        Optional :class:`PreemptionSchedule`; each trigger kills the run
        once, after which the trainer restores and replays.
    restart_penalty_s:
        Simulated seconds charged to the ``recovery`` stage per restart
        (VM re-acquisition + environment spin-up).
    max_restarts:
        Hard cap; exceeding it re-raises the :class:`PreemptionError`.
    resume:
        When true, ``run()`` first restores the newest archive already in
        ``checkpoint_dir`` — fresh-process resume after a real kill.
    """

    def __init__(
        self,
        *args,
        checkpoint_dir: Union[str, Path],
        checkpoint_every_batches: int = 25,
        preemptions: Optional[PreemptionSchedule] = None,
        restart_penalty_s: float = 0.0,
        max_restarts: int = 16,
        resume: bool = False,
        **kwargs,
    ) -> None:
        if checkpoint_every_batches < 0:
            raise ValueError(
                "checkpoint_every_batches must be >= 0, "
                f"got {checkpoint_every_batches}"
            )
        super().__init__(*args, **kwargs)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_every_batches = int(checkpoint_every_batches)
        self.preemptions = preemptions
        self.restart_penalty_s = float(restart_penalty_s)
        self.max_restarts = int(max_restarts)
        self.recovery = RecoveryStats()
        self._resume = bool(resume)
        self._cursor = (0, 0)  # (epoch, next batch slot)
        self._pending_order: Optional[np.ndarray] = None
        self._pending_acc: Optional[EpochAccumulator] = None
        self._result: Optional[TrainResult] = None
        self._ckpt_seq = 0
        self._last_ckpt_clock_s = 0.0
        self._batches_since_ckpt = 0

    # ------------------------------------------------------------------
    def _run_epochs(self, result: TrainResult) -> None:
        """The base loop from the cursor, restored and retried on each
        preemption (``run`` itself — ``run_start``, the run span — is the
        base class's, once per call however many restarts happen)."""
        self._result = result
        if self._resume:
            latest = self.latest_checkpoint()
            if latest is not None:
                self._restore(latest)
            self._resume = False
        if self.latest_checkpoint() is None:
            # Baseline archive: a preemption before the first periodic
            # checkpoint still has something to restore.
            self._write_checkpoint()
        while True:
            orders = None if self._pending_order is None else [self._pending_order]
            try:
                return super()._run_epochs(
                    result, self._cursor, orders, self._pending_acc, self._on_batch
                )
            except PreemptionError:
                self.recovery.restarts += 1
                self.recovery.lost_s += max(
                    0.0, self.clock.total_seconds - self._last_ckpt_clock_s
                )
                self.recovery.replayed_batches += self._batches_since_ckpt
                if self.recovery.restarts > self.max_restarts:
                    raise
                self._restore(self.latest_checkpoint())
                if self.restart_penalty_s:
                    self.clock.advance(RECOVERY_STAGE, self.restart_penalty_s)

    # ------------------------------------------------------------------
    def _on_batch(
        self, epoch: int, slot: int, orders: List[np.ndarray], acc: EpochAccumulator
    ) -> None:
        (order,) = orders  # one replica; K>1 checkpoint payloads are a follow-up
        self._cursor = (epoch, slot + 1)
        self._batches_since_ckpt += 1
        # Preemption is checked *before* writing a due checkpoint, so a
        # kill landing on a checkpoint boundary still loses work — the
        # pessimistic (realistic) ordering.
        if self.preemptions is not None:
            self.preemptions.check(epoch, slot, self.clock.total_seconds)
        due = (
            self.checkpoint_every_batches > 0
            and self._batches_since_ckpt >= self.checkpoint_every_batches
        )
        if due or slot + 1 == self.loader.n_batches(order):
            self._write_checkpoint(order=order, acc=acc)

    # ------------------------------------------------------------------
    def _write_checkpoint(
        self,
        order: Optional[np.ndarray] = None,
        acc: Optional[EpochAccumulator] = None,
    ) -> Path:
        epoch, batch = self._cursor
        state = {
            "format": CHECKPOINT_FORMAT,
            "cursor": [int(epoch), int(batch)],
            "order": None if order is None else np.asarray(order, dtype=np.int64),
            "acc": None if acc is None else dataclasses.asdict(acc),
            "model": {k: np.asarray(v) for k, v in self.model.state_dict().items()},
            "optim": {
                "velocity": [np.asarray(v) for v in self.optimizer._velocity],
                "epoch": int(self.optimizer.epoch),
            },
            "policy": self.policy.state_dict(),
            "clock": self.clock.state_dict(),
            "store": {
                "fetch_count": int(self.store.fetch_count),
                "bytes_fetched": int(self.store.bytes_fetched),
            },
            "loader_skipped": int(self.loader.skipped_count),
            "trainer_rng": self._rng.bit_generator.state,
            "epochs": (
                [dataclasses.asdict(e) for e in self._result.epochs]
                if self._result is not None
                else []
            ),
        }
        self._ckpt_seq += 1
        path = self.checkpoint_dir / f"ckpt-{self._ckpt_seq:06d}.npz"
        save_state(path, state)
        self.recovery.checkpoints_written += 1
        self._last_ckpt_clock_s = self.clock.total_seconds
        self._batches_since_ckpt = 0
        self._prune()
        if self.observer.active:
            self.observer.on_checkpoint(str(path), int(epoch), int(batch))
        return path

    def _restore(self, path: Union[str, Path]) -> None:
        state = load_state(path)
        if state.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint {path} has format {state.get('format')!r}; "
                f"this trainer reads format {CHECKPOINT_FORMAT}"
            )
        epoch, batch = state["cursor"]
        self._cursor = (int(epoch), int(batch))
        self._pending_order = state["order"]
        self._pending_acc = (
            None if state["acc"] is None else EpochAccumulator(**state["acc"])
        )
        self.model.load_state_dict(state["model"])
        velocity = state["optim"]["velocity"]
        if len(velocity) != len(self.optimizer._velocity):
            raise ValueError("checkpoint optimizer parameter count mismatch")
        for dst, src in zip(self.optimizer._velocity, velocity):
            np.copyto(dst, src)
        self.optimizer.set_epoch(int(state["optim"]["epoch"]))
        self.policy.load_state_dict(state["policy"])
        self.clock.load_state_dict(state["clock"])
        self.store.fetch_count = int(state["store"]["fetch_count"])
        self.store.bytes_fetched = int(state["store"]["bytes_fetched"])
        self.loader.skipped_count = int(state["loader_skipped"])
        self._rng.bit_generator.state = state["trainer_rng"]
        if self._result is not None:
            self._result.epochs[:] = [
                EpochMetrics(**e) for e in state["epochs"]
            ]
        self._last_ckpt_clock_s = self.clock.total_seconds
        self._batches_since_ckpt = 0
        if self.observer.active:
            self.observer.on_restore(str(path), self._cursor[0], self._cursor[1])

    # ------------------------------------------------------------------
    def checkpoints(self) -> List[Path]:
        """Retained checkpoint archives, oldest first."""
        if not self.checkpoint_dir.is_dir():
            return []
        return sorted(self.checkpoint_dir.glob("ckpt-*.npz"))

    def latest_checkpoint(self) -> Optional[Path]:
        """Newest retained archive (or None), syncing the sequence counter."""
        paths = self.checkpoints()
        if not paths:
            return None
        latest = paths[-1]
        # A fresh-process resume must continue the sequence numbering.
        seq = int(latest.stem.split("-")[1])
        if seq > self._ckpt_seq:
            self._ckpt_seq = seq
        return latest

    def _prune(self) -> None:
        paths = self.checkpoints()
        for stale in paths[:-KEEP_LAST]:
            stale.unlink()
