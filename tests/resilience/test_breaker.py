"""Circuit-breaker state machine, and the remote store it guards."""

import numpy as np

from repro.resilience import breaker
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.faults import FaultPlan, OutageWindow
from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency


def _store(n=20):
    store = RemoteStore(
        np.arange(float(n))[:, None], item_nbytes=512, clock=SimClock()
    )
    store.latency = ConstantLatency(base_s=1e-3)
    return store


def _breaker(monkeypatch, failure_threshold=3, cooldown_s=1.0, close_threshold=1):
    """A breaker with the given thresholds set on the module constants."""
    monkeypatch.setattr(breaker, "FAILURE_THRESHOLD", failure_threshold)
    monkeypatch.setattr(breaker, "CLOSE_THRESHOLD", close_threshold)
    return CircuitBreaker(cooldown_s=cooldown_s)


def test_opens_after_consecutive_failures(monkeypatch):
    br = _breaker(monkeypatch, failure_threshold=3, cooldown_s=1.0)
    assert not br.record_failure(0.0)
    assert not br.record_failure(0.1)
    assert br.record_failure(0.2)
    assert br.state is BreakerState.OPEN
    assert br.opens == 1
    assert not br.allow(0.5)  # cooling down


def test_success_resets_failure_streak(monkeypatch):
    br = _breaker(monkeypatch, failure_threshold=2)
    br.record_failure(0.0)
    br.record_success(0.1)
    assert not br.record_failure(0.2)  # streak restarted
    assert br.state is BreakerState.CLOSED


def test_half_open_after_cooldown_then_closes(monkeypatch):
    br = _breaker(monkeypatch, failure_threshold=1, cooldown_s=1.0, close_threshold=2)
    br.record_failure(0.0)
    assert not br.allow(0.5)
    assert br.allow(1.0)  # cooldown elapsed -> half-open probe
    assert br.state is BreakerState.HALF_OPEN
    br.record_success(1.1)
    assert br.state is BreakerState.HALF_OPEN  # needs close_threshold successes
    br.record_success(1.2)
    assert br.state is BreakerState.CLOSED


def test_half_open_failure_reopens(monkeypatch):
    br = _breaker(monkeypatch, failure_threshold=1, cooldown_s=1.0)
    br.record_failure(0.0)
    assert br.allow(1.5)
    assert br.record_failure(1.6)
    assert br.state is BreakerState.OPEN
    assert br.opens == 2
    assert not br.allow(2.0)  # fresh cooldown from t=1.6
    assert br.allow(2.7)


def test_events_and_recovery_pairs(monkeypatch):
    br = _breaker(monkeypatch, failure_threshold=1, cooldown_s=1.0)
    br.record_failure(0.0)
    br.allow(1.0)
    br.record_success(1.1)
    pairs = br.reopen_close_pairs()
    assert pairs == [(0.0, 1.1)]
    br.record_failure(2.0)
    assert br.reopen_close_pairs()[-1] == (2.0, None)


def test_breaker_store_trips_then_fails_fast_then_recloses(monkeypatch):
    store = _store()
    clock = store.clock
    store.fault_plan = FaultPlan(outages=[OutageWindow(0.0, 1.0)])
    br = store.breaker = _breaker(monkeypatch, failure_threshold=2, cooldown_s=0.5)

    # Below threshold: the outage answers None and counts one failure.
    assert store.get(0) is None
    assert br.state is BreakerState.CLOSED
    # Threshold reached: the failure trips the breaker.
    assert store.get(1) is None
    assert br.state is BreakerState.OPEN
    assert store.outage_failures == 2

    # While open: fail-fast before the fault plan is consulted.
    assert store.get(2) is None
    assert store.outage_failures == 2
    assert br.fast_failures == 1

    # Cooldown elapses but the outage persists: the half-open probe fails
    # and the breaker reopens.
    clock.advance("data_load", 0.6)
    assert store.get(3) is None
    assert br.state is BreakerState.OPEN
    assert br.opens == 2
    assert store.outage_failures == 3
    assert br.fast_failures == 1

    # Outage over + cooldown over: the probe succeeds and the breaker
    # re-closes.
    clock.advance("data_load", 1.0)
    np.testing.assert_array_equal(store.get(4), store.peek(4))
    assert br.state is BreakerState.CLOSED
    assert store.fetch_count == 1


def test_breaker_store_passthrough_when_healthy():
    store = _store()
    store.breaker = CircuitBreaker()
    for i in range(5):
        store.get(i)
    assert store.breaker.state is BreakerState.CLOSED
    assert store.fetch_count == 5
