"""Metrics registry tests: named counters."""

import pytest

from repro.obs.metrics import Counter, MetricsRegistry


def test_counter_monotone():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_registry_get_or_create():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    reg.counter("a").inc(2)
    assert reg.counter("a").value == 5
    assert reg.counter("a") is reg.counter("a")


def test_registry_snapshot():
    reg = MetricsRegistry()
    reg.counter("c").inc(7)
    reg.counter("b")
    assert reg.snapshot() == {"counters": {"b": 0, "c": 7}}
