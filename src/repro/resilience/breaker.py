"""Circuit breaker over a remote read path.

During a fail-stop outage, every fetch burns its full retry budget before
failing — the loader stalls on a tier that is known-down. The breaker
converts that into fail-fast rejections the semantic cache serves
degraded:

* **closed** — requests pass through; consecutive failures are counted;
* **open** — after :data:`FAILURE_THRESHOLD` consecutive failures, requests are
  rejected immediately (the remote store and the shard client both
  answer "unreachable" and the caller degrades) until ``cooldown_s`` of
  *simulated* time elapses;
* **half-open** — after the cool-down, probe requests pass through;
  :data:`CLOSE_THRESHOLD` consecutive successes re-close the breaker, any
  failure re-opens it (fresh cool-down).

A breaker holds no clock: its owner passes simulated time in — the
remote store its own :class:`~repro.storage.clock.SimClock` (the breaker
assigned to ``RemoteStore.breaker``), the shard client its transport's
(one breaker per shard) — so breaker trajectories are deterministic per
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List

from repro.obs.observer import NULL_OBSERVER, Observer

__all__ = ["BreakerState", "BreakerEvent", "CircuitBreaker"]

#: Consecutive failures that open a closed breaker.
FAILURE_THRESHOLD = 3
#: Consecutive half-open successes that re-close it.
CLOSE_THRESHOLD = 1


class BreakerState(str, Enum):
    """The breaker's position in its closed -> open -> half-open cycle."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerEvent:
    """One state transition, stamped with simulated time."""

    at_s: float
    old: BreakerState
    new: BreakerState


class CircuitBreaker:
    """Closed -> open -> half-open state machine on a simulated clock."""

    def __init__(self, cooldown_s: float = 1.0) -> None:
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.cooldown_s = float(cooldown_s)
        self.state = BreakerState.CLOSED
        self.events: List[BreakerEvent] = []
        self.opens = 0
        self.fast_failures = 0
        self._consecutive_failures = 0
        self._half_open_successes = 0
        self._opened_at = 0.0
        self._obs = NULL_OBSERVER
        self.label: "str | None" = None  # names the guarded resource

    def attach_observer(
        self, observer: Observer, label: "str | None" = None
    ) -> None:
        """Publish state transitions to ``observer``.

        ``label`` (e.g. ``"shard3"``) is attached to every transition
        event so multi-breaker owners stay distinguishable in the trace.
        Registers :meth:`counters` with ``observer``.
        """
        self._obs = observer
        observer.register(self)
        if label is not None:
            self.label = str(label)

    def counters(self) -> Dict[str, int]:
        """Transitions, and those into open, under the metrics names."""
        return {
            "breaker.opens": self.opens,
            "breaker.transitions": len(self.events),
        }

    # ------------------------------------------------------------------
    def _transition(self, new: BreakerState, now: float) -> None:
        if new is self.state:
            return
        self.events.append(BreakerEvent(now, self.state, new))
        if self._obs.active:
            self._obs.on_breaker(
                self.state.value, new.value, now, where=self.label
            )
        self.state = new

    def allow(self, now: float) -> bool:
        """May a request pass through at simulated time ``now``?

        An open breaker whose cool-down has elapsed moves to half-open and
        admits the probe.
        """
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.cooldown_s:
                self._half_open_successes = 0
                self._transition(BreakerState.HALF_OPEN, now)
                return True
            return False
        return True

    def record_success(self, now: float) -> None:
        """A passed-through request succeeded."""
        self._consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._half_open_successes += 1
            if self._half_open_successes >= CLOSE_THRESHOLD:
                self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> bool:
        """A passed-through request failed; returns True if now open."""
        if self.state is BreakerState.HALF_OPEN:
            self._open(now)
            return True
        self._consecutive_failures += 1
        if self._consecutive_failures >= FAILURE_THRESHOLD:
            self._open(now)
            return True
        return False

    def _open(self, now: float) -> None:
        self._opened_at = now
        self._consecutive_failures = 0
        self.opens += 1
        self._transition(BreakerState.OPEN, now)

    # ------------------------------------------------------------------
    def reopen_close_pairs(self) -> List[tuple]:
        """(opened_at, reclosed_at) pairs for recovery-time reporting.

        An open with no later close yields ``(opened_at, None)``.
        """
        pairs = []
        opened_at = None
        for ev in self.events:
            if ev.new is BreakerState.OPEN and opened_at is None:
                opened_at = ev.at_s
            elif ev.new is BreakerState.CLOSED and opened_at is not None:
                pairs.append((opened_at, ev.at_s))
                opened_at = None
        if opened_at is not None:
            pairs.append((opened_at, None))
        return pairs
