"""Metrics registry tests: counters, gauges, fixed-bucket histograms."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_monotone():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_last_write_wins():
    g = Gauge("x")
    assert g.value is None
    g.set(0.5)
    g.set(0.25)
    assert g.value == 0.25


def test_histogram_bucketing():
    h = Histogram("lat", bounds=(1.0, 10.0, 100.0))
    for v in (0.5, 1.0, 5.0, 50.0, 1000.0):
        h.observe(v)
    # Inclusive upper edges; 1000 overflows.
    assert h.counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.total == 1056.5


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(10.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("bad", bounds=())


def test_registry_get_or_create():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    reg.counter("a").inc(2)
    assert reg.counter("a").value == 5
    reg.gauge("g").set(1.0)
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_registry_snapshot():
    reg = MetricsRegistry()
    reg.counter("c").inc(7)
    reg.gauge("g").set(0.9)
    reg.histogram("h", bounds=(1.0,)).observe(0.5)
    snap = reg.snapshot()
    assert snap["counters"] == {"c": 7}
    assert snap["gauges"] == {"g": 0.9}
    assert snap["histograms"]["h"]["count"] == 1
    assert snap["histograms"]["h"]["counts"] == [1, 0]
