"""Property tests for the Elastic Cache Manager (Eq. 5-8 invariants).

Hypothesis drives random score-std / accuracy trajectories and checks the
structural guarantees the rest of the system builds on: the applied ratio
is always within ``[r_end, r_start]``, the annealing is monotone
non-increasing, beta latches one-way, the penalty stays in ``[0, 1]`` for
any accuracy series, and :meth:`coordinate` pushes one global decision to
every cache tier (monolithic and sharded alike).
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import elastic
from repro.core.elastic import (
    AccuracyMonitor,
    ElasticCacheManager,
    ImportanceMonitor,
    RatioController,
)
from repro.core.semantic_cache import SemanticCache
from repro.dist.client import ShardedCacheClient

_std = st.floats(0.0, 10.0, allow_nan=False)
_acc = st.floats(0.0, 1.0, allow_nan=False)
_trajectory = st.lists(st.tuples(_std, _acc), min_size=1, max_size=40)
_endpoints = st.tuples(
    st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
).map(lambda t: (max(t), min(t)))  # r_start >= r_end


@given(endpoints=_endpoints, traj=_trajectory)
@settings(max_examples=60, deadline=None)
def test_ratio_clamped_and_monotone_nonincreasing(endpoints, traj):
    r_start, r_end = endpoints
    mgr = ElasticCacheManager(total_epochs=len(traj), r_start=r_start,
                              r_end=r_end)
    ratios = [mgr.step(e, std, acc) for e, (std, acc) in enumerate(traj)]
    assert all(r_end - 1e-12 <= r <= r_start + 1e-12 for r in ratios)
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert mgr.history[-1].imp_ratio == ratios[-1]


@given(traj=st.lists(_std, min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_beta_latches_one_way(traj):
    mon = ImportanceMonitor()
    with mock.patch.object(elastic, "SLOPE_WINDOW", 3):
        betas = [mon.observe(s) for s in traj]
    assert all(b in (0, 1) for b in betas)
    # Once 1, never back to 0.
    assert all(a <= b for a, b in zip(betas, betas[1:]))
    if mon.activation_epoch is not None:
        assert betas[mon.activation_epoch] == 1


@given(series=st.lists(_acc, min_size=1, max_size=40),
       gamma=st.floats(1e-4, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_penalty_always_in_unit_interval(series, gamma):
    mon = AccuracyMonitor()
    with mock.patch.object(elastic, "GAMMA", gamma):
        for a in series:
            u = mon.observe(a)
            assert 0.0 <= u <= 1.0


@given(t=st.integers(-5, 200), beta=st.sampled_from([0, 1]),
       u=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_controller_edges_and_clamps(t, beta, u):
    c = RatioController(r_start=0.9, r_end=0.8, total_epochs=50)
    r = c.ratio(t, beta, u)
    assert 0.8 <= r <= 0.9
    if beta == 0:
        assert r == 0.9  # no annealing before activation
    if beta == 1 and t >= 50:
        assert r == pytest.approx(0.8)  # fully annealed past T


def test_controller_validation():
    c = RatioController()
    with pytest.raises(ValueError):
        c.ratio(1, beta=2, u=0.0)
    with pytest.raises(ValueError):
        c.ratio(1, beta=1, u=1.5)
    with pytest.raises(ValueError):
        RatioController(r_start=0.5, r_end=0.8)
    with pytest.raises(ValueError):
        ImportanceMonitor().observe(-1.0)


@given(traj=_trajectory)
@settings(max_examples=25, deadline=None)
def test_coordinate_applies_one_ratio_to_every_tier(traj):
    """One decision, pushed to a monolithic cache AND a sharded client —
    the multi-worker coordination contract."""
    mgr = ElasticCacheManager(total_epochs=len(traj), r_start=0.9, r_end=0.5)
    mono = SemanticCache(20, imp_ratio=0.9)
    client = ShardedCacheClient(20, imp_ratio=0.9, n_shards=2)
    for e, (std, acc) in enumerate(traj):
        ratio = mgr.coordinate(e, std, acc, [mono, client])
        assert mono.imp_ratio == ratio
        assert client.imp_ratio == ratio
        # Both tiers agree on the floor-based capacity split.
        assert mono.importance.capacity == client.importance.capacity


@given(traj=st.lists(st.tuples(_std, _acc), min_size=2, max_size=12))
@settings(max_examples=15, deadline=None)
def test_coordinate_under_a_shard_outage_keeps_tiers_in_lockstep(traj):
    """The elastic decision lands while one shard of the sharded client
    is down (its victim deletes park for anti-entropy): the split must
    still apply identically to both tiers, and the repair after recovery
    must not disturb it."""
    import numpy as np

    from repro.resilience.faults import FaultPlan, OutageWindow

    mgr = ElasticCacheManager(total_epochs=len(traj), r_start=0.9, r_end=0.5)
    mono = SemanticCache(20, imp_ratio=0.9)
    client = ShardedCacheClient(20, imp_ratio=0.9, n_shards=2)
    payload = lambda i: np.full(2, float(i), dtype=np.float32)
    for k in range(16):
        mono.fetch(k, float(k + 1), payload)
        client.fetch(k, float(k + 1), payload)

    client.transport.fault_plans[0] = FaultPlan(outages=[OutageWindow(0.0, 1e9)])
    for e, (std, acc) in enumerate(traj):
        ratio = mgr.coordinate(e, std, acc, [mono, client])
        assert mono.imp_ratio == ratio == client.imp_ratio
        assert mono.importance.capacity == client.importance.capacity
        assert mono.homophily.capacity == client.homophily.capacity
        assert len(client.importance) <= client.importance.capacity

    # Recovery: breaker cooldowns only elapse when the clock moves; then
    # anti-entropy drains the parked deletes.
    client.transport.fault_plans[0] = None
    client.clock.advance("compute", 1.0)
    for sid in client.servers:
        client._flush(sid)
    assert not any(client._deletes.values())
    assert client.verify_placement() == []
    for sid, server in client.servers.items():
        owned = {k for k, s in client._loc["imp"].items() if s == sid}
        assert set(server.keys("imp")) == owned
    assert mono.importance.capacity == client.importance.capacity
    assert sorted(mono.importance._items) == sorted(client.importance._items)
