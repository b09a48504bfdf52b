"""Differential oracle: sharded client == monolith, bit for bit.

All policy state lives client-side, so a fault-free sharded run must be
*indistinguishable* from a monolithic :class:`SemanticCache` run — same
served stream, same stats, same ``state_dict`` (heap tiebreaks included)
— for any shard count. Hypothesis drives random workloads over every
mutator in the shared API to prove it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantic_cache import SemanticCache
from repro.dist.client import ShardedCacheClient
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency

pytestmark = [pytest.mark.dist, pytest.mark.usefixtures("no_jitter")]

FAST = ConstantLatency(base_s=1e-4, bandwidth_bps=1e15)
TOTAL = 24


def payload(i):
    return np.full(4, float(i), dtype=np.float32)


def make_client(n_shards):
    cli = ShardedCacheClient(
        TOTAL, imp_ratio=0.8, n_shards=n_shards, clock=SimClock()
    )
    cli.transport.latency = FAST
    return cli


_idx = st.integers(0, 59)
_score = st.floats(0.1, 100.0, allow_nan=False)
_op = st.one_of(
    st.tuples(st.just("fetch"), _idx, _score),
    st.tuples(st.just("hom"), _idx, st.lists(_idx, max_size=4)),
    st.tuples(st.just("score"), _idx, _score),
    st.tuples(st.just("ratio"), st.floats(0.1, 0.9, allow_nan=False)),
)
_workload = st.lists(_op, min_size=10, max_size=100)


def apply_op(cache, op):
    """Run one op; returns a comparable outcome tuple."""
    kind = op[0]
    if kind == "fetch":
        out = cache.fetch(op[1], op[2], payload)
        return (out.requested_id, out.served_id, out.source.value)
    if kind == "hom":
        return cache.update_homophily(op[1] + 1000, payload(op[1] + 1000),
                                      [n + 500 for n in op[2]])
    if kind == "score":
        return cache.update_score(op[1], op[2])
    cache.set_imp_ratio(op[1])
    return None


def deep_equal(a, b, path=""):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
    elif isinstance(a, dict):
        assert set(a) == set(b), path
        for k in a:
            deep_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            deep_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def assert_bit_identical(mono, cli):
    deep_equal(mono.state_dict(), cli.state_dict())
    assert mono.stats.hit_ratio == cli.stats.hit_ratio
    assert len(mono) == len(cli)
    assert cli.dropped_admits == 0 and cli.degraded_lookups == 0


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@given(ops=_workload)
@settings(max_examples=25, deadline=None)
def test_sharded_run_is_bit_identical_to_monolith(n_shards, ops):
    mono = SemanticCache(TOTAL, imp_ratio=0.8)
    cli = make_client(n_shards)
    for op in ops:
        assert apply_op(mono, op) == apply_op(cli, op)
    assert_bit_identical(mono, cli)


def test_state_roundtrip_onto_another_shard_count():
    """Checkpoint on K shards, restore onto K' shards: the logical cache
    (and a monolith restored from the same snapshot) must agree."""
    cli = make_client(2)
    rng = np.random.default_rng(3)
    for k in rng.integers(0, 60, size=150):
        cli.fetch(int(k), float(rng.random() * 10 + 0.1), payload)
    for k in range(5):
        cli.update_homophily(2000 + k, payload(2000 + k), [k, k + 1])
    snap = cli.state_dict()

    other = make_client(5)
    other.load_state_dict(snap)
    assert other.verify_placement() == []
    deep_equal(snap, other.state_dict())

    mono = SemanticCache(TOTAL, imp_ratio=0.8)
    mono.load_state_dict(snap)
    deep_equal(mono.state_dict(), other.state_dict())
