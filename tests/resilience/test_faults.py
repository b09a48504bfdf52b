"""Fault-model tests: outage/brownout windows and the injecting store."""

import numpy as np
import pytest

from repro.resilience.errors import StorageOutageError
from repro.resilience.faults import (
    BrownoutWindow,
    FaultInjectingStore,
    FaultPlan,
    OutageWindow,
)
from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.flaky import TransientFetchError
from repro.storage.latency import ConstantLatency


def _store(n=20, base_s=1e-3):
    store = RemoteStore(
        np.arange(float(n))[:, None], item_nbytes=512, clock=SimClock()
    )
    store.latency = ConstantLatency(base_s=base_s)
    return store


def test_window_validation():
    with pytest.raises(ValueError):
        OutageWindow(-1.0, 2.0)
    with pytest.raises(ValueError):
        OutageWindow(3.0, 2.0)
    with pytest.raises(ValueError):
        BrownoutWindow(0.0, 1.0, latency_multiplier=0.5)


def test_window_active_is_half_open_interval():
    w = OutageWindow(1.0, 2.0)
    assert not w.active(0.999)
    assert w.active(1.0)
    assert w.active(1.999)
    assert not w.active(2.0)


def test_plan_latency_multiplier_composes():
    plan = FaultPlan(brownouts=[
        BrownoutWindow(0.0, 10.0, 2.0),
        BrownoutWindow(5.0, 15.0, 3.0),
    ])
    assert plan.latency_multiplier(1.0) == pytest.approx(2.0)
    assert plan.latency_multiplier(7.0) == pytest.approx(6.0)
    assert plan.latency_multiplier(12.0) == pytest.approx(3.0)
    assert plan.latency_multiplier(20.0) == pytest.approx(1.0)


def test_outage_raises_and_counts():
    store = _store()
    faulty = FaultInjectingStore(store, FaultPlan(outages=[OutageWindow(0.0, 1.0)]))
    with pytest.raises(StorageOutageError):
        faulty.get(0)
    # Outage errors are transient (retry layers and the breaker both see
    # the same taxonomy).
    with pytest.raises(TransientFetchError):
        faulty.get(1)
    assert faulty.outage_failures == 2
    assert store.fetch_count == 0  # never reached the backing store

    # Past the window the store works again.
    store.clock.advance("data_load", 1.0)
    np.testing.assert_array_equal(faulty.get(2), store.peek(2))
    assert faulty.fetch_count == 1


def test_brownout_charges_extra_latency():
    clean = _store(base_s=1e-3)
    clean.get(0)
    single = clean.clock.stage_seconds("data_load")  # one normal fetch

    store = _store(base_s=1e-3)
    plan = FaultPlan(brownouts=[BrownoutWindow(0.0, 100.0, 4.0)])
    faulty = FaultInjectingStore(store, plan)
    faulty.get(0)
    charged = store.clock.stage_seconds("data_load")
    # 4x multiplier: the normal fetch charge plus 3x extra.
    assert charged == pytest.approx(4 * single, rel=1e-9)
    assert faulty.brownout_fetches == 1
    assert faulty.brownout_extra_s == pytest.approx(3 * single, rel=1e-9)


def test_brownout_outside_window_is_free():
    store = _store(base_s=1e-3)
    plan = FaultPlan(brownouts=[BrownoutWindow(10.0, 20.0, 4.0)])
    faulty = FaultInjectingStore(store, plan)
    clean = _store(base_s=1e-3)
    clean.get(0)
    faulty.get(0)
    assert faulty.brownout_fetches == 0
    assert store.clock.stage_seconds("data_load") == pytest.approx(
        clean.clock.stage_seconds("data_load"), rel=1e-12
    )
