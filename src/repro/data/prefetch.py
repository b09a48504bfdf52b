"""Concurrent prefetching data loader (paper §5, Fig. 12).

The serial :class:`~repro.data.loader.DataLoader` fetches every sample
one after another and the clock pays the *sum* of their latencies. The
paper's modified PyTorch loader instead overlaps fetches with compute and
with each other, so a window of concurrent fetches costs its *maximum*
latency. :class:`PrefetchingDataLoader` reproduces that overlap shape on
the simulated clock:

* each slot's fetch runs in **sampler order** on the calling thread, so
  cache probes/admissions, stat counters and store counters — and
  therefore batches, substitutions and
  :class:`~repro.cache.base.CacheStats` — are the serial loader's by
  construction;
* each fetch's clock charge is captured via
  :meth:`~repro.storage.clock.SimClock.deferred` and the window of
  ``workers`` consecutive fetches is re-charged as one
  :meth:`~repro.storage.clock.SimClock.advance_parallel` call —
  ``max(durations)`` instead of ``sum(durations)``.

A window never spans a batch, so nothing is in flight between batch
slots — which is what keeps mid-epoch checkpoint/resume bit-exact.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.data.loader import Batch, DataLoader
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock

__all__ = ["PrefetchingDataLoader"]


class PrefetchingDataLoader(DataLoader):
    """Fetches batches slot by slot and charges overlapped windows.

    Parameters
    ----------
    labels, fetch_fn, batch_size, fetch_many_fn:
        As for :class:`~repro.data.loader.DataLoader`.
    workers:
        Overlap-window width used for the max-of-window clock accounting.
        ``1`` degenerates to the serial loader (no re-accounting, the
        batch entry); more workers fetch per slot through ``fetch_fn`` —
        a slot is the unit of overlap, so there is no batch to hand over.
    clock:
        The run's :class:`~repro.storage.clock.SimClock`; per-fetch
        charges to :attr:`STAGE` are captured and re-charged as
        overlapped windows.
    observer:
        Run observer; receives one ``on_prefetch_window`` per window.
    """

    #: Clock stage the overlap accounting applies to (the remote store's).
    STAGE = RemoteStore.STAGE

    def __init__(
        self,
        labels: np.ndarray,
        fetch_fn,
        batch_size: int = 128,
        workers: int = 4,
        *,
        clock: SimClock,
        observer: Optional[Observer] = None,
        fetch_many_fn=None,
    ) -> None:
        super().__init__(
            labels, fetch_fn, batch_size=batch_size, fetch_many_fn=fetch_many_fn
        )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.clock = clock
        self._obs = observer if observer is not None else NULL_OBSERVER
        #: Simulated seconds saved by overlap (serial sum - charged max),
        #: accumulated across all windows this loader served.
        self.overlap_saved_s = 0.0
        self.windows_committed = 0

    def collate(self, ids: np.ndarray) -> Optional[Batch]:
        """Fetch one batch slot by slot in sampler order, then charge its
        windows. A fetch that raises propagates at once, so later slots are
        never fetched (the serial loader's abort) and the batch's captured
        charges are dropped."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] == 0:
            return None
        if self.workers == 1:
            return super().collate(ids)
        # A batch of one still goes through the window path (a window of
        # one) so every remote charge in a prefetch run is window-accounted
        # — the trace aggregator relies on that invariant.
        outcomes = []
        durations: List[float] = []
        for i in ids:
            with self.clock.deferred(self.STAGE) as cell:
                outcomes.append(self.fetch_fn(int(i)))
            durations.append(cell.seconds)
        self._commit_windows(durations)
        return self._collate_outcomes(outcomes)

    def _commit_windows(self, durations: List[float]) -> None:
        """Re-charge captured per-fetch costs as overlapped windows."""
        obs = self._obs
        for start in range(0, len(durations), self.workers):
            window = durations[start : start + self.workers]
            t0 = self.clock.total_seconds if obs.active else 0.0
            charged = self.clock.advance_parallel(self.STAGE, window)
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
