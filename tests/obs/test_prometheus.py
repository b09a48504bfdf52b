"""Prometheus text exposition and log-bucket generator tests."""

import math

import pytest

from repro.obs.metrics import (
    SPAN_BUCKETS_S,
    MetricsRegistry,
    log_buckets,
    render_prometheus,
)


def _snapshot():
    reg = MetricsRegistry()
    reg.counter("cache.fetches").inc(42)
    reg.gauge("load.p99_s").set(0.0125)
    reg.gauge("unset.gauge")  # created but never set: must be skipped
    h = reg.histogram("rpc.latency_s", bounds=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.005, 0.05, 5.0):
        h.observe(v)
    return reg.snapshot()


def test_render_counters_with_total_suffix():
    text = render_prometheus(_snapshot())
    assert "# TYPE repro_cache_fetches_total counter" in text
    assert "\nrepro_cache_fetches_total 42\n" in text


def test_render_gauges_and_skips_unset():
    text = render_prometheus(_snapshot())
    assert "# TYPE repro_load_p99_s gauge" in text
    assert "repro_load_p99_s 0.0125" in text
    assert "unset_gauge" not in text


def test_render_histogram_cumulative_with_inf():
    lines = render_prometheus(_snapshot()).splitlines()
    hist = [l for l in lines if l.startswith("repro_rpc_latency_s")]
    assert hist == [
        'repro_rpc_latency_s_bucket{le="0.001"} 1',
        'repro_rpc_latency_s_bucket{le="0.01"} 2',
        'repro_rpc_latency_s_bucket{le="0.1"} 3',
        'repro_rpc_latency_s_bucket{le="+Inf"} 4',
        "repro_rpc_latency_s_sum 5.0555",
        "repro_rpc_latency_s_count 4",
    ]
    assert "# TYPE repro_rpc_latency_s histogram" in lines


def test_render_sanitizes_names_and_prefix():
    reg = MetricsRegistry()
    reg.counter("shard0.imp-len").inc()
    text = render_prometheus(reg.snapshot(), prefix="spider_")
    assert "spider_shard0_imp_len_total 1" in text


def test_render_leading_digit_gets_underscore():
    reg = MetricsRegistry()
    reg.counter("0weird").inc()
    text = render_prometheus(reg.snapshot(), prefix="")
    assert "_0weird_total 1" in text


def test_render_ends_with_trailing_newline():
    text = render_prometheus(_snapshot())
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_render_empty_snapshot():
    assert render_prometheus({"counters": {}, "gauges": {}, "histograms": {}}) == "\n"


def test_render_is_parseable_exposition_format():
    """Every non-comment line is `name{labels}? value` with a float value."""
    for line in render_prometheus(_snapshot()).splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        float(value)  # must parse
        bare = name_part.split("{", 1)[0]
        assert bare == bare.strip() and bare.replace("_", "a").isalnum()


def test_log_buckets_geometric_and_rounded():
    b = log_buckets(1e-3, 1.0, per_decade=3)
    assert b[0] == pytest.approx(1e-3)
    assert b[-1] >= 1.0
    assert list(b) == sorted(b)
    # Uniform ratio (three per decade ~ 10^(1/3)) within rounding.
    ratios = [b[i + 1] / b[i] for i in range(len(b) - 1)]
    for r in ratios:
        assert r == pytest.approx(10 ** (1 / 3), rel=1e-4)
    # Bounds carry at most 6 significant digits.
    for v in b:
        assert float("%.6g" % v) == v


def test_log_buckets_validation():
    with pytest.raises(ValueError):
        log_buckets(0.0, 1.0)
    with pytest.raises(ValueError):
        log_buckets(1.0, 1.0)
    with pytest.raises(ValueError):
        log_buckets(1e-3, 1.0, per_decade=0)


def test_span_buckets_cover_six_decades():
    assert SPAN_BUCKETS_S[0] == pytest.approx(1e-6)
    assert SPAN_BUCKETS_S[-1] >= 100.0
    assert len(SPAN_BUCKETS_S) == int(
        math.ceil(8 * 3)
    ) + 1  # 8 decades at 3/decade, inclusive
