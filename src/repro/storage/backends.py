"""Storage backend serving sample payloads by index.

``RemoteStore`` is the simulated NFS/cloud tier: every ``get`` charges
latency to a :class:`~repro.storage.clock.SimClock` and increments fetch
counters.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency

__all__ = ["RemoteStore"]


class RemoteStore:
    """Remote storage over a dataset's payload array.

    Parameters
    ----------
    payloads:
        ``(n, ...)`` array; row ``i`` is sample ``i``'s raw data.
    item_nbytes:
        Simulated on-storage size per item (drives the bandwidth term of
        the datacenter-NFS-like :class:`ConstantLatency`).
    clock:
        Stage clock to charge fetch time to (stage name ``"data_load"``).
    """

    STAGE = "data_load"

    def __init__(
        self,
        payloads: np.ndarray,
        item_nbytes: int = 3 * 1024,
        clock: Optional[SimClock] = None,
    ) -> None:
        self._payloads = payloads
        self.item_nbytes = int(item_nbytes)
        self.latency = ConstantLatency()
        self.clock = clock if clock is not None else SimClock()
        self.fetch_count = 0
        self.bytes_fetched = 0
        self._obs = NULL_OBSERVER

    def attach_observer(self, observer: Observer) -> None:
        """Publish per-fetch latency and :meth:`counters` to ``observer``."""
        self._obs = observer
        observer.register(self)

    def counters(self) -> Dict[str, int]:
        """Fetches and bytes under the metrics names."""
        return {
            "store.fetches": self.fetch_count,
            "store.bytes_fetched": self.bytes_fetched,
        }

    def __len__(self) -> int:
        return self._payloads.shape[0]

    def get(self, index: int) -> np.ndarray:
        """Fetch one payload, charging simulated latency."""
        if not 0 <= index < len(self):
            raise IndexError(f"sample index {index} out of range")
        nbytes = self.item_nbytes
        self.fetch_count += 1
        self.bytes_fetched += nbytes
        latency_s = self.latency.sample(nbytes)
        self.clock.advance(self.STAGE, latency_s)
        if self._obs.active:
            self._obs.on_store_fetch(latency_s)
        return self._payloads[index]

    def peek(self, index: int) -> np.ndarray:
        """Read a payload without charging latency (test/diagnostic use)."""
        return self._payloads[index]
