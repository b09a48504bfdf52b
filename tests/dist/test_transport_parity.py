"""Transport parity: real process shards == simulated oracle, bit for bit.

The transport refactor's load-bearing claim: every retry/breaker/
anti-entropy decision lives in :class:`ShardedCacheClient`, so swapping
:class:`SimRpcChannel` for :class:`RealRpcTransport` (shard servers in
real worker processes, length-prefixed pipes, pickled frames) must not
change a single observable bit of a fault-free run — same served
stream, same ``state_dict`` (heap tiebreaks included), same RPC call
counts, same modelled RPC time on the clock, same clean
``verify_placement`` — for any shard count. Hypothesis drives random
workloads over every mutator in the shared API — single fetches and
``fetch_many`` batches (multi-key read frames, queued writes riding
other frames) alike — to prove it.

These tests spawn real processes and poll real pipes, so they carry the
``wallclock`` marker alongside ``dist``; CI runs them with a hard
timeout and no retries (a flake here is a bug, not weather).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.client import ShardedCacheClient
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency

pytestmark = [
    pytest.mark.dist, pytest.mark.wallclock, pytest.mark.usefixtures("no_jitter"),
]

FAST = ConstantLatency(base_s=1e-4, bandwidth_bps=1e15)
TOTAL = 24
# Generous: parity runs must never see a spurious timeout — an ambiguous
# failure would (correctly) perturb client accounting and sink the diff.
REAL_DEADLINE_S = 30.0


def payload(i):
    return np.full(4, float(i), dtype=np.float32)


def make_sim(n_shards):
    cli = ShardedCacheClient(
        TOTAL, imp_ratio=0.8, n_shards=n_shards, clock=SimClock()
    )
    cli.transport.latency = FAST
    return cli


def make_real(n_shards):
    cli = ShardedCacheClient(
        TOTAL, imp_ratio=0.8, n_shards=n_shards, transport="real",
        clock=SimClock(), deadline_s=REAL_DEADLINE_S,
    )
    cli.transport.latency = FAST
    return cli


_idx = st.integers(0, 59)
_score = st.floats(0.1, 100.0, allow_nan=False)
_op = st.one_of(
    st.tuples(st.just("fetch"), _idx, _score),
    st.tuples(st.just("batch"),
              st.lists(st.tuples(_idx, _score), min_size=1, max_size=8)),
    st.tuples(st.just("hom"), _idx, st.lists(_idx, max_size=4)),
    st.tuples(st.just("score"), _idx, _score),
    st.tuples(st.just("ratio"), st.floats(0.1, 0.9, allow_nan=False)),
)
_workload = st.lists(_op, min_size=10, max_size=60)


def apply_op(cache, op):
    """Run one op; returns a comparable outcome tuple."""
    kind = op[0]
    if kind == "fetch":
        out = cache.fetch(op[1], op[2], payload)
        return (out.requested_id, out.served_id, out.source.value)
    if kind == "batch":  # the loaders' entry: read-ahead + queued writes
        outs = cache.fetch_many([i for i, _ in op[1]], [s for _, s in op[1]],
                                payload)
        return [(o.requested_id, o.served_id, o.source.value) for o in outs]
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


def assert_transports_agree(sim, real):
    """Everything observable, both layers: cache policy, RPC ledger and
    the clock the RPCs were charged to."""
    deep_equal(sim.state_dict(), real.state_dict())
    assert sim.clock.breakdown() == real.clock.breakdown()
    assert sim.stats.hit_ratio == real.stats.hit_ratio
    assert len(sim) == len(real)
    for cli in (sim, real):
        assert cli.degraded_lookups == 0
        assert cli.transport.failures == 0 and cli.transport.timeouts == 0
    # The data-plane RPC ledger must match call for call: same workload,
    # same placement math, no retries -> identical per-shard counters.
    assert sim.transport.calls == real.transport.calls
    assert dict(sim.transport.per_shard_calls) == \
        dict(real.transport.per_shard_calls)
    assert real.verify_placement() == []
    assert sim.verify_placement() == []


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@given(ops=_workload)
@settings(max_examples=8, deadline=None)
def test_real_transport_is_bit_identical_to_sim(n_shards, ops):
    sim = make_sim(n_shards)
    real = make_real(n_shards)
    try:
        for op in ops:
            assert apply_op(sim, op) == apply_op(real, op)
        assert_transports_agree(sim, real)
    finally:
        real.close()


def test_real_shard_contents_match_client_metadata():
    """Beyond the client's own bookkeeping: interrogate the worker
    processes directly (control-plane ``peek``) and check every shard
    holds exactly the payload keys the client's placement map says."""
    real = make_real(2)
    try:
        rng = np.random.default_rng(11)
        for k in rng.integers(0, 60, size=120):
            real.fetch(int(k), float(rng.random() * 10 + 0.1), payload)
        for k in range(5):
            real.update_homophily(2000 + k, payload(2000 + k), [k, k + 1])
        for sid in real.transport.shard_ids:  # land the queued writes
            real._flush(sid)
        for sid in real.transport.shard_ids:
            for layer, loc in (("imp", real._loc["imp"]),
                               ("hom", real._loc["hom"])):
                owned = {k for k, s in loc.items() if s == sid}
                held = set(real.transport.peek(sid, "keys", layer))
                assert held == owned, (sid, layer)
    finally:
        real.close()


def test_checkpoint_crosses_transports():
    """Snapshot on real processes, restore onto the simulated oracle
    (and back): the logical cache must survive the round trip bit-exactly
    on a fresh shard count."""
    real = make_real(2)
    try:
        rng = np.random.default_rng(7)
        for k in rng.integers(0, 60, size=100):
            real.fetch(int(k), float(rng.random() * 10 + 0.1), payload)
        snap = real.state_dict()
    finally:
        real.close()

    sim = make_sim(3)
    sim.load_state_dict(snap)
    assert sim.verify_placement() == []
    deep_equal(snap, sim.state_dict())

    real2 = make_real(3)
    try:
        real2.load_state_dict(snap)
        assert real2.verify_placement() == []
        deep_equal(sim.state_dict(), real2.state_dict())
    finally:
        real2.close()
