"""Latency model tests."""

import pytest

from repro.storage.latency import ConstantLatency


def test_constant_formula():
    lat = ConstantLatency(base_s=1e-3, bandwidth_bps=1e6)
    assert lat.sample(1000) == pytest.approx(1e-3 + 1e-3)


def test_constant_monotone_in_size():
    lat = ConstantLatency()
    assert lat.sample(10**6) > lat.sample(10**3)


def test_constant_invalid():
    with pytest.raises(ValueError):
        ConstantLatency(base_s=-1)
    with pytest.raises(ValueError):
        ConstantLatency(bandwidth_bps=0)
