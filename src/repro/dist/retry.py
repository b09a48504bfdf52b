"""Retry discipline for cache-protocol RPCs.

A :class:`RetryPolicy` gives every logical request a bounded **retry
budget** and a **capped exponential backoff** schedule with *seeded*
jitter: the jitter for attempt ``a`` of request ``r`` is a pure function
of ``(JITTER_SEED, r, a)`` via splitmix64, so retry timing is fully
deterministic per run — the property the differential oracle and the
backoff-schedule tests rely on — while still decorrelating concurrent
retriers the way random jitter does in production systems.

Backoff waits are charged to the RPC stage of the shared simulated
clock: a request that burns its budget during an outage visibly costs
``attempts x deadline + sum(backoffs)`` of simulated time, which is
exactly the stall the circuit breaker exists to cut short.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.hashing import splitmix64

__all__ = ["RetryPolicy"]

#: Attempt ``a`` (0-based) waits ``min(BACKOFF_CAP_S, BACKOFF_BASE_S *
#: BACKOFF_MULTIPLIER**a)`` before attempt ``a+1``, scaled by jitter.
BACKOFF_BASE_S = 1e-3
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP_S = 0.05
#: Fraction of each wait that is randomized: the wait is drawn uniformly
#: from ``[(1 - JITTER) * d, d]``.
JITTER = 0.5
#: Jitter-stream seed.
JITTER_SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts per logical request, the first included (so the
        retry budget is ``max_attempts - 1``). ``1`` disables retries.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    # ------------------------------------------------------------------
    def backoff_s(self, request_id: int, attempt: int) -> float:
        """Wait before retrying ``attempt + 1`` of request ``request_id``.

        Deterministic: a pure function of ``(request_id, attempt)``.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        raw = min(BACKOFF_CAP_S, BACKOFF_BASE_S * BACKOFF_MULTIPLIER ** attempt)
        h = splitmix64(splitmix64(JITTER_SEED ^ int(request_id)) ^ int(attempt))
        u = h / float(1 << 64)  # uniform in [0, 1)
        return raw * (1.0 - JITTER * u)
