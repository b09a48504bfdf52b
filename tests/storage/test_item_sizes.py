"""Item sizes in RemoteStore: one uniform size drives latency and bytes."""

import numpy as np
import pytest

from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency


def test_uniform_size_default():
    s = RemoteStore(np.arange(10.0)[:, None], item_nbytes=1000, clock=SimClock())
    s.latency = ConstantLatency(base_s=0.0, bandwidth_bps=1e3)  # 1B = 1ms
    s.get(0)
    assert s.bytes_fetched == 1000
    assert s.clock.total_seconds == pytest.approx(1.0)
