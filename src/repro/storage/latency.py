"""Per-fetch latency models.

Each model maps an item size to a simulated fetch time:
``latency = base + nbytes / bandwidth``. The defaults approximate
the paper's environment — NFS within a datacenter over 10 Gbps Ethernet,
where each small-file read costs ~8 ms (RTT + metadata + server queueing;
sequential bandwidth ~1.1 GB/s only matters for large items) — producing
the Fig. 3(a) regime where data loading dominates compute.
"""

from __future__ import annotations

__all__ = ["ConstantLatency"]


class ConstantLatency:
    """Deterministic latency: fixed base plus bandwidth-proportional term."""

    def __init__(self, base_s: float = 8e-3, bandwidth_bps: float = 1.1e9) -> None:
        if base_s < 0 or bandwidth_bps <= 0:
            raise ValueError("base_s must be >= 0 and bandwidth_bps > 0")
        self.base_s = base_s
        self.bandwidth_bps = bandwidth_bps

    def sample(self, nbytes: int) -> float:
        """Fetch time for ``nbytes`` (deterministic)."""
        return self.base_s + nbytes / self.bandwidth_bps
