"""The transient fetch-failure type.

The paper's deployment model — spot VMs reading from remote cloud storage —
sees transient fetch failures (connection resets, NFS timeouts).
:class:`TransientFetchError` is what a store raises for one; the fault
models that raise it (fail-stop outage windows, latency brownouts) and the
circuit breaker that absorbs it live in :mod:`repro.resilience`, and the
RPC side's bounded backoff in :mod:`repro.dist.retry`.
"""

from __future__ import annotations

__all__ = ["TransientFetchError"]


class TransientFetchError(RuntimeError):
    """A fetch failed transiently; retrying may succeed."""
