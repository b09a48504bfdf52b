"""Concurrent prefetching data loader (paper §5, Fig. 12).

The serial :class:`~repro.data.loader.DataLoader` fetches every sample
one after another and the clock pays the *sum* of their latencies. The
paper's modified PyTorch loader instead overlaps fetches with compute and
with each other, so a window of concurrent fetches costs its *maximum*
latency. :class:`PrefetchingDataLoader` reproduces that overlap shape:

* a :class:`~repro.concurrency.executor.SlotExecutor` runs the batch's
  fetch tasks — real worker threads plus a
  :class:`~repro.concurrency.sequencer.Sequencer` in wall-clock mode, or
  the seeded
  :class:`~repro.concurrency.scheduler.DeterministicScheduler` in
  test/oracle mode — committing each fetch's side effects — cache
  probes/admissions, stat counters, store counters, clock charges — in
  **sampler order**, so batches, substitutions, and
  :class:`~repro.cache.base.CacheStats` are bit-identical to the serial
  loader's (and across executors);
* each fetch's clock charge is captured via
  :meth:`~repro.storage.clock.SimClock.deferred` and the window of
  ``workers`` consecutive fetches is re-charged as one
  :meth:`~repro.storage.clock.SimClock.advance_parallel` call —
  ``max(durations)`` instead of ``sum(durations)``.

The window never spans a batch: :meth:`collate` drains every outstanding
fetch before returning, which is what keeps mid-epoch checkpoint/resume
bit-exact — a checkpoint can only be written between batch slots, when no
fetch is in flight.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.concurrency.executor import SlotExecutor, make_slot_executor
from repro.data.loader import Batch, DataLoader
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.storage.clock import SimClock

__all__ = ["PrefetchingDataLoader"]


class PrefetchingDataLoader(DataLoader):
    """Fetches batches through a worker pool with sampler-order commits.

    Parameters
    ----------
    labels, fetch_fn, batch_size, fetch_many_fn:
        As for :class:`~repro.data.loader.DataLoader`.
    workers:
        Worker-thread count; also the overlap-window width used for the
        max-of-window clock accounting. ``1`` degenerates to the serial
        loader (no pool, no re-accounting, the batch entry); more workers
        fetch per slot through ``fetch_fn`` — a slot is the unit of
        overlap, so there is no batch to hand over.
    clock:
        The run's :class:`~repro.storage.clock.SimClock`. When given,
        per-fetch charges to ``stage`` are captured and re-charged as
        overlapped windows; without it, fetches charge whatever they
        charge (no overlap modelling).
    stage:
        Clock stage the overlap accounting applies to (the remote store's
        ``data_load`` stage).
    observer:
        Run observer; receives one ``on_prefetch_window`` per window.
    executor:
        ``"threads"`` (default, wall-clock mode) runs slots on a real
        thread pool; ``"deterministic"`` (test/oracle mode) runs them as
        logical workers under a seeded
        :class:`~repro.concurrency.scheduler.DeterministicScheduler` —
        same batches, same stats, no OS-scheduler nondeterminism. A
        :class:`~repro.concurrency.executor.SlotExecutor` instance is
        also accepted.
    seed:
        Interleaving seed for the deterministic executor.
    """

    def __init__(
        self,
        labels: np.ndarray,
        fetch_fn,
        batch_size: int = 128,
        workers: int = 4,
        clock: Optional[SimClock] = None,
        stage: str = "data_load",
        observer: Optional[Observer] = None,
        executor: Union[str, SlotExecutor] = "threads",
        seed: int = 0,
        fetch_many_fn=None,
    ) -> None:
        super().__init__(
            labels, fetch_fn, batch_size=batch_size, fetch_many_fn=fetch_many_fn
        )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.clock = clock
        self.stage = stage
        self._obs = observer if observer is not None else NULL_OBSERVER
        self._executor = make_slot_executor(executor, self.workers, seed)
        #: Simulated seconds saved by overlap (serial sum - charged max),
        #: accumulated across all windows this loader served.
        self.overlap_saved_s = 0.0
        self.windows_committed = 0

    # ------------------------------------------------------------------
    @property
    def executor_kind(self) -> str:
        """``"threads"`` or ``"deterministic"``."""
        return self._executor.kind

    # ------------------------------------------------------------------
    def collate(self, ids: np.ndarray) -> Optional[Batch]:
        """Fetch one batch through the pool, committing in sampler order."""
        ids = np.asarray(ids, dtype=np.int64)
        n = int(ids.shape[0])
        if n == 0:
            return None
        if self.workers == 1:
            return super().collate(ids)
        # n == 1 still goes through the window path (a window of one) so
        # every remote charge in a prefetch run is window-accounted — the
        # trace aggregator relies on that invariant.

        outcomes: List[Optional[object]] = [None] * n
        durations = [0.0] * n

        def make_thunk(slot: int):
            def fetch_slot() -> None:
                # The executor guarantees slot-order commits; the
                # cache/store/clock side effects here run one slot at a
                # time, in sampler order — the bit-exactness guarantee.
                if self.clock is not None:
                    with self.clock.deferred(self.stage) as cell:
                        outcomes[slot] = self.fetch_fn(int(ids[slot]))
                    durations[slot] = cell.seconds
                else:
                    outcomes[slot] = self.fetch_fn(int(ids[slot]))
            return fetch_slot

        self._executor.run([make_thunk(i) for i in range(n)])

        self._commit_windows(durations)
        return self._collate_outcomes(outcomes)

    def _commit_windows(self, durations: List[float]) -> None:
        """Re-charge captured per-fetch costs as overlapped windows."""
        if self.clock is None:
            return
        obs = self._obs
        for start in range(0, len(durations), self.workers):
            window = durations[start : start + self.workers]
            t0 = self.clock.total_seconds if obs.active else 0.0
            charged = self.clock.advance_parallel(self.stage, window)
            saved = sum(window) - charged
            self.overlap_saved_s += saved
            self.windows_committed += 1
            if obs.active:
                obs.on_prefetch_window(len(window), sum(window), charged)
                if charged > 0:
                    obs.span_record(
                        "prefetch_window", t0, t0 + charged,
                        fetches=len(window), saved_s=saved,
                    )

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Wait until no fetch is in flight.

        :meth:`collate` already drains before returning, so between batch
        slots this is a no-op — it exists as the explicit contract point
        the checkpoint path calls before snapshotting state.
        """

    def close(self) -> None:
        """Shut down the slot executor (idempotent; the threaded
        executor lazily rebuilds its pool if used again)."""
        self._executor.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
