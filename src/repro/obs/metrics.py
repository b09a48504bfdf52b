"""Lightweight metrics registry: named counters.

Sized for a simulation harness: no labels, no locks, no background
export — just counters a component publishes into and a
:meth:`MetricsRegistry.snapshot` that serializes them (the run's export,
:meth:`~repro.obs.observer.Observer.snapshot`, adds the counts components
keep themselves). Counters are get-or-create by name, so publishers and
readers never need to coordinate registration order.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Counter", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the count."""
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class MetricsRegistry:
    """Name-keyed collection of counters with get-or-create access."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-serializable dump of every counter's current value."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
        }
