"""The two failures the fault-tolerant runtime raises.

An unreachable remote read path is not one of them: the remote store and
the shard store answer ``None`` and the cache serves degraded. What is
left to raise:

* :class:`CircuitOpenError` — an open per-shard breaker's fail-fast
  rejection, raised and caught inside the shard client;
* :class:`PreemptionError` — the VM itself is terminated; only a
  checkpoint restart recovers.
"""

from __future__ import annotations

__all__ = ["CircuitOpenError", "PreemptionError"]


class CircuitOpenError(RuntimeError):
    """Fail-fast rejection: the circuit breaker is open (cooling down)."""


class PreemptionError(RuntimeError):
    """The (simulated) spot VM was terminated mid-training."""

    def __init__(self, epoch: int, batch: int, at_s: float) -> None:
        super().__init__(
            f"preempted at epoch {epoch}, batch {batch} (t={at_s:.3f}s)"
        )
        self.epoch = int(epoch)
        self.batch = int(batch)
        self.at_s = float(at_s)
