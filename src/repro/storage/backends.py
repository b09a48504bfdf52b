"""Storage backend serving sample payloads by index.

``RemoteStore`` is the simulated NFS/cloud tier: every ``get`` charges
latency to a :class:`~repro.storage.clock.SimClock` and increments fetch
counters. A fault campaign assigns it a fault plan and a circuit breaker
(:mod:`repro.resilience`), and ``get`` enforces both itself.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.storage.clock import SimClock
from repro.storage.flaky import TransientFetchError
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

    def get(self, index: int) -> np.ndarray:
        """Fetch one payload, charging simulated latency.

        With a breaker assigned, an open breaker rejects the fetch with
        :class:`~repro.resilience.errors.CircuitOpenError`; a failed fetch
        (any :class:`TransientFetchError`, outages included) counts
        against it, and the failure that trips it surfaces as
        ``CircuitOpenError`` too, the signal degraded serving catches.
        """
        breaker = self.breaker
        if breaker is None:
            return self._fetch(index)
        # Not at module top: importing repro.resilience imports this module.
        from repro.resilience.errors import CircuitOpenError

        now = self.clock.total_seconds
        if not breaker.allow(now):
            breaker.fast_failures += 1
            raise CircuitOpenError(
                f"circuit open at t={now:.3f}s; rejecting fetch of {index}"
            )
        try:
            payload = self._fetch(index)
        except TransientFetchError as exc:
            if breaker.record_failure(self.clock.total_seconds):
                raise CircuitOpenError(
                    f"circuit opened at t={now:.3f}s fetching {index}"
                ) from exc
            raise
        breaker.record_success(self.clock.total_seconds)
        return payload

    def _fetch(self, index: int) -> np.ndarray:
        """One read under the fault plan: inside an outage window it raises
        :class:`~repro.resilience.errors.StorageOutageError`; inside a
        brownout it costs the product of the active multipliers times the
        normal latency, the extra charged and reported with the fetch."""
        plan = self.fault_plan
        mult = 1.0
        if plan is not None:
            now = self.clock.total_seconds
            if plan.outage_active(now):
                self.outage_failures += 1
                from repro.resilience.errors import StorageOutageError

                raise StorageOutageError(
                    f"storage outage at t={now:.3f}s fetching {index}"
                )
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
