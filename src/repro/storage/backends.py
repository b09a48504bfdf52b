"""Storage backend serving sample payloads by index.

``RemoteStore`` is the simulated NFS/cloud tier: every ``get`` charges
latency to a :class:`~repro.storage.clock.SimClock` and increments fetch
counters. A fault campaign assigns it a fault plan and a circuit breaker
(:mod:`repro.resilience`), and ``get`` enforces both itself: while the
tier is unreachable it answers ``None``, as every remote read path does.
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

    ``fault_plan`` (a :class:`~repro.resilience.faults.FaultPlan`) and
    ``breaker`` (a :class:`~repro.resilience.breaker.CircuitBreaker`) are
    ``None`` until a fault campaign assigns them; both are evaluated
    against ``clock``, so a run hits the same faults at the same points.
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
        self.fault_plan = None
        self.breaker = None
        self.outage_failures = 0
        self.brownout_extra_s = 0.0
        self._obs = NULL_OBSERVER

    def attach_observer(self, observer: Observer) -> None:
        """Publish per-fetch latency and :meth:`counters` to ``observer``,
        and the breaker's transitions when one is assigned."""
        self._obs = observer
        observer.register(self)
        if self.breaker is not None:
            self.breaker.attach_observer(observer)

    def counters(self) -> Dict[str, int]:
        """Fetches and bytes under the metrics names."""
        return {
            "store.fetches": self.fetch_count,
            "store.bytes_fetched": self.bytes_fetched,
        }

    def __len__(self) -> int:
        return self._payloads.shape[0]

    def get(self, index: int) -> Optional[np.ndarray]:
        """Fetch one payload, charging simulated latency; ``None`` when the
        tier is unreachable.

        With a breaker assigned, an open breaker rejects the fetch
        (counted in its ``fast_failures``); a failed fetch counts against
        it. Either way the answer is ``None``, which the semantic cache
        serves degraded.
        """
        breaker = self.breaker
        if breaker is None:
            return self._fetch(index)
        if not breaker.allow(self.clock.total_seconds):
            breaker.fast_failures += 1
            return None
        payload = self._fetch(index)
        if payload is None:
            breaker.record_failure(self.clock.total_seconds)
        else:
            breaker.record_success(self.clock.total_seconds)
        return payload

    def _fetch(self, index: int) -> Optional[np.ndarray]:
        """One read under the fault plan: inside an outage window it
        answers ``None``; inside a brownout it costs the product of the
        active multipliers times the normal latency, the extra charged and
        reported with the fetch."""
        plan = self.fault_plan
        mult = 1.0
        if plan is not None:
            now = self.clock.total_seconds
            if plan.outage_active(now):
                self.outage_failures += 1
                return None
            mult = plan.latency_multiplier(now)
        if not 0 <= index < len(self):
            raise IndexError(f"sample index {index} out of range")
        nbytes = self.item_nbytes
        self.fetch_count += 1
        self.bytes_fetched += nbytes
        latency_s = self.latency.sample(nbytes)
        if mult == 1.0:
            self.clock.advance(self.STAGE, latency_s)
        else:
            before = self.clock.stage_seconds(self.STAGE)
            self.clock.advance(self.STAGE, latency_s)
            base = self.clock.stage_seconds(self.STAGE) - before
            extra = (mult - 1.0) * base
            if extra > 0:
                self.clock.advance(self.STAGE, extra)
                self.brownout_extra_s += extra
            latency_s = base + extra
        if self._obs.active:
            self._obs.on_store_fetch(latency_s)
        return self._payloads[index]

    def peek(self, index: int) -> np.ndarray:
        """Read a payload without charging latency (test/diagnostic use)."""
        return self._payloads[index]
