"""Shared base class for store wrappers.

Store wrappers (fault windows, circuit breakers) stack:
``CircuitBreakerStore(FaultInjectingStore(remote, plan))`` is the
resilient read path ``repro faults`` builds. Every wrapper must expose the
full store interface — ``__len__``, ``get``, ``peek``, ``clock``, ``fetch_count``, ``bytes_fetched`` — plus
whatever counters *inner* wrappers accumulate (``outage_failures``,
``brownout_fetches``, ...), otherwise wrapped stacks silently under-report
I/O accounting. :class:`StoreWrapper` centralizes the forwarding so each
wrapper only overrides the behaviour it changes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.storage.clock import SimClock

__all__ = ["StoreWrapper"]


class StoreWrapper:
    """Transparent store decorator: forwards the whole store protocol.

    Subclasses override ``get`` (and occasionally ``peek``) and may define
    their own counters; everything else — length, sizing, byte/fetch
    accounting, the simulated clock, and *any* attribute an inner wrapper
    exposes — resolves through the wrapped store, so stacked wrappers
    never hide each other's state.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner

    # -- structural forwarding -----------------------------------------
    def __len__(self) -> int:
        return len(self.inner)

    @property
    def clock(self) -> SimClock:
        return self.inner.clock

    @property
    def fetch_count(self) -> int:
        return self.inner.fetch_count

    @property
    def bytes_fetched(self) -> int:
        return self.inner.bytes_fetched

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails: forward inner wrappers'
        # counters (outage_failures, brownout_fetches, breaker, ...) up the
        # stack. ``inner`` itself missing means __init__ hasn't run.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- default behaviour ---------------------------------------------
    def get(self, index: int) -> np.ndarray:
        """Fetch through the wrapped store (subclasses decorate this)."""
        return self.inner.get(index)

    def peek(self, index: int) -> np.ndarray:
        """Free read from the wrapped store (never injected with faults)."""
        return self.inner.peek(index)

    # -- introspection --------------------------------------------------
    def unwrap(self) -> Any:
        """The innermost (non-wrapper) store in the stack."""
        store = self.inner
        while isinstance(store, StoreWrapper):
            store = store.inner
        return store
