"""Store-wrapper interface tests: full forwarding through arbitrary stacks."""

import numpy as np
import pytest

from repro.resilience.breaker import CircuitBreaker, CircuitBreakerStore
from repro.resilience.errors import StorageOutageError
from repro.resilience.faults import (
    BrownoutWindow,
    FaultInjectingStore,
    FaultPlan,
    OutageWindow,
)
from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency
from repro.storage.wrappers import StoreWrapper


def _store(n=50):
    store = RemoteStore(
        np.arange(float(n))[:, None], item_nbytes=1024, clock=SimClock()
    )
    store.latency = ConstantLatency(base_s=1e-3)
    return store


def test_wrapper_forwards_core_interface():
    base = _store()
    w = StoreWrapper(base)
    assert len(w) == len(base)
    assert w.clock is base.clock
    np.testing.assert_array_equal(w.get(7), base.peek(7))
    np.testing.assert_array_equal(w.peek(7), base.peek(7))


def _stack(base, plan=None):
    """The read path ``repro faults`` composes: breaker over fault plan."""
    faulty = FaultInjectingStore(base, plan or FaultPlan())
    breaker = CircuitBreaker()
    return CircuitBreakerStore(faulty, breaker), faulty


def test_counters_visible_through_stack():
    base = _store()
    # ~1 ms fetches: two fail in the outage, then a brownout slows four.
    plan = FaultPlan(
        outages=[OutageWindow(0.0, 0.001)],
        brownouts=[BrownoutWindow(0.002, 0.012, latency_multiplier=3.0)],
    )
    guarded, faulty = _stack(base, plan)
    for _ in range(2):
        with pytest.raises(StorageOutageError):
            guarded.get(0)
    base.clock.advance("compute", 0.002)
    for i in range(10):
        guarded.get(i)
    # Inner-wrapper counters surface through the outer wrapper.
    assert guarded.outage_failures == faulty.outage_failures == 2
    assert guarded.brownout_fetches == faulty.brownout_fetches == 4
    assert guarded.brownout_extra_s == faulty.brownout_extra_s > 0
    assert guarded.plan is plan
    # Base-store counters surface through both wrappers.
    assert guarded.fetch_count == base.fetch_count == 10
    assert guarded.bytes_fetched == base.bytes_fetched == 10 * 1024


def test_unwrap_returns_base_store():
    base = _store()
    guarded, _ = _stack(base)
    assert guarded.unwrap() is base


def test_unknown_attribute_raises():
    w = StoreWrapper(_store())
    with pytest.raises(AttributeError):
        w.no_such_attribute


def test_len_forwards_through_the_stack():
    base = _store(17)
    w, _ = _stack(base)
    assert len(w) == 17
