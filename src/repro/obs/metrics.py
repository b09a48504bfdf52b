"""Lightweight metrics registry: counters, gauges, fixed-bucket histograms.

The Prometheus-shaped trio, sized for a simulation harness: no labels, no
locks, no background export — just named instruments a component publishes
into and a :meth:`MetricsRegistry.snapshot` that serializes them (the
run's export, :meth:`~repro.obs.observer.Observer.snapshot`, adds the
counts components keep themselves). Instruments are get-or-create by
name, so publishers and readers never need to coordinate registration
order.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_S",
    "SPAN_BUCKETS_S",
    "log_buckets",
    "render_prometheus",
]

#: Default histogram buckets for simulated I/O latencies (seconds):
#: 20 us (in-memory hit) up through multi-second degraded fetches.
LATENCY_BUCKETS_S = (
    20e-6, 50e-6, 100e-6, 500e-6,
    1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3,
    1.0, 5.0,
)


def log_buckets(
    lo: float, hi: float, per_decade: int = 3
) -> Tuple[float, ...]:
    """Geometric histogram bounds from ``lo`` up to (at least) ``hi``.

    ``per_decade`` bounds per factor of 10, so relative quantile error
    is uniform across six-plus orders of magnitude — the right shape
    for span durations, where a 2 us cache hit and a 50 ms degraded
    fetch share one instrument. Bounds are rounded to 6 significant
    digits so exported ``le`` labels are stable and readable.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    step = 10.0 ** (1.0 / per_decade)
    n = int(math.ceil(math.log(hi / lo) / math.log(step))) + 1
    out: List[float] = []
    for i in range(n):
        b = float("%.6g" % (lo * step ** i))
        if not out or b > out[-1]:
            out.append(b)
    return tuple(out)


#: Default bounds for span-duration histograms: 1 us .. 100 s at three
#: buckets per decade (25 buckets + overflow).
SPAN_BUCKETS_S = log_buckets(1e-6, 100.0, per_decade=3)


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


class Gauge:
    """Last-written value (e.g. the current elastic imp-ratio)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with cumulative-style bucket counts.

    ``bounds`` are the inclusive upper edges of each bucket; observations
    above the last bound land in the implicit overflow bucket. Tracks
    ``count``/``total`` so means are recoverable without the raw stream.
    """

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.name = name
        self.bounds: List[float] = [float(b) for b in bounds]
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # +overflow
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value


class MetricsRegistry:
    """Name-keyed collection of instruments with get-or-create access."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS_S
    ) -> Histogram:
        """The histogram named ``name``, created on first use.

        ``bounds`` only applies at creation; later calls return the
        existing instrument regardless.
        """
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """JSON-serializable dump of every instrument's current state."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "bounds": h.bounds,
                    "counts": h.counts,
                    "count": h.count,
                    "total": h.total,
                }
                for n, h in sorted(self._histograms.items())
            },
        }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    """Map a dotted instrument name into the Prometheus grammar."""
    sanitized = _NAME_OK.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def _prom_num(value: float) -> str:
    """A float in exposition-format shape (ints stay integral)."""
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return "%.9g" % f


def render_prometheus(snapshot: Dict[str, Dict], prefix: str = "repro_") -> str:
    """A :meth:`MetricsRegistry.snapshot` as Prometheus text format.

    Works from the snapshot dict (not the live registry) so ``repro
    metrics`` can re-export the ``summary.json`` of a finished run.
    Counters gain the conventional ``_total`` suffix; histograms render
    cumulative ``_bucket{le=...}`` series with the mandatory ``+Inf``
    bucket plus ``_sum``/``_count``; unset gauges are skipped. Ends with
    a trailing newline as the exposition format requires.
    """
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        pn = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {pn} counter")
        lines.append(f"{pn} {_prom_num(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue
        pn = _prom_name(name, prefix)
        lines.append(f"# TYPE {pn} gauge")
        lines.append(f"{pn} {_prom_num(value)}")
    for name, h in snapshot.get("histograms", {}).items():
        pn = _prom_name(name, prefix)
        lines.append(f"# TYPE {pn} histogram")
        cum = 0
        for bound, n in zip(h["bounds"], h["counts"]):
            cum += n
            lines.append('%s_bucket{le="%s"} %d' % (pn, "%.9g" % bound, cum))
        lines.append('%s_bucket{le="+Inf"} %d' % (pn, h["count"]))
        lines.append(f"{pn}_sum {_prom_num(h['total'])}")
        lines.append(f"{pn}_count {h['count']}")
    return "\n".join(lines) + "\n"
