"""Storage backend tests."""

import numpy as np
import pytest

from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency


@pytest.fixture
def store():
    payloads = np.arange(20.0)[:, None]
    store = RemoteStore(payloads, item_nbytes=1024, clock=SimClock())
    store.latency = ConstantLatency(base_s=1e-3, bandwidth_bps=1e6)
    return store


def test_get_returns_payload(store):
    np.testing.assert_array_equal(store.get(5), [5.0])


def test_get_charges_clock(store):
    store.get(0)
    expected = 1e-3 + 1024 / 1e6
    assert store.clock.stage_seconds("data_load") == pytest.approx(expected)
    store.get(1)
    assert store.clock.stage_seconds("data_load") == pytest.approx(2 * expected)


def test_counters(store):
    store.get(0)
    store.get(1)
    assert store.fetch_count == 2
    assert store.bytes_fetched == 2048


def test_out_of_range(store):
    with pytest.raises(IndexError):
        store.get(100)
    with pytest.raises(IndexError):
        store.get(-1)


def test_peek_free(store):
    np.testing.assert_array_equal(store.peek(3), [3.0])
    assert store.clock.total_seconds == 0.0
    assert store.fetch_count == 0


def test_len(store):
    assert len(store) == 20


def test_default_clock_created():
    s = RemoteStore(np.zeros((3, 1)))
    s.get(0)
    assert s.clock.total_seconds > 0
