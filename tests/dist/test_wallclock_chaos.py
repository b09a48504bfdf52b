"""Wall-clock chaos: kill a real shard worker, get the sim fault's bits.

The simulated fault plans model a dead shard as a permanent
:class:`OutageWindow` whose every RPC raises :class:`ShardOutageError`.
The real transport models it by actually SIGKILLing the worker process.
These tests drive the *same* post-fault workload through both and assert
the degradation ledger is identical — same served-outcome stream, same
``degraded_lookups``, same write queues, same breaker trajectory, same
per-shard RPC counters. That is the claim that makes the simulator an
oracle: a chaos scenario rehearsed in sim is exactly what production
would do.

State dicts are deliberately NOT compared here — a dead shard's payloads
are lost, so ``state_dict`` would (correctly) have to degrade; the
contract under faults is about the *ledger*, not the bytes.

Real processes => ``wallclock`` marker; CI runs these with a hard
timeout and retries=0.
"""

import numpy as np
import pytest

from repro.dist.client import ShardedCacheClient
from repro.dist.retry import RetryPolicy
from repro.dist.rpc import ShardOutageError
from repro.dist import client as client_module
from repro.resilience import breaker
from repro.resilience.breaker import BreakerState
from repro.resilience.faults import FaultPlan, OutageWindow
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency

pytestmark = [
    pytest.mark.dist, pytest.mark.wallclock, pytest.mark.usefixtures("no_jitter"),
]

FAST = ConstantLatency(base_s=1e-4, bandwidth_bps=1e15)
OUTAGE = FaultPlan(outages=[OutageWindow(0.0, 1e9)])
TOTAL = 40
# Long enough that neither twin's breaker re-arms mid-test: the
# trajectory must be closed -> open on both, with no half-open probes.
COOLDOWN_S = 1000.0


def payload(i):
    return np.full(4, float(i), dtype=np.float32)


def make_twins(monkeypatch):
    """A sim client and a real-process client with identical policy."""
    monkeypatch.setattr(breaker, "FAILURE_THRESHOLD", 5)
    monkeypatch.setattr(client_module, "BREAKER_COOLDOWN_S", COOLDOWN_S)
    kw = dict(imp_ratio=0.5, n_shards=2, retry=RetryPolicy(max_attempts=2))
    sim = ShardedCacheClient(TOTAL, clock=SimClock(), **kw)
    real = ShardedCacheClient(TOTAL, transport="real", clock=SimClock(),
                              deadline_s=30.0, **kw)
    for cli in (sim, real):
        cli.transport.latency = FAST
    return sim, real


def populate(cli, n_imp=20, n_hom=5):
    """Fill both layers and land the payloads on the shards."""
    for k in range(n_imp):
        cli.fetch(k, float(k + 1), payload)
    for k in range(1000, 1000 + n_hom):
        cli.update_homophily(k, payload(k), [k + 10000])
    for sid in cli.transport.shard_ids:
        cli._flush(sid)
    assert not cli._writes


def run_traffic(cli):
    """Post-fault workload: hits, misses, and admits against both shards.
    Returns the observable outcome stream."""
    outcomes = []
    for k in range(30):
        out = cli.fetch(k, float(k + 1), payload)
        outcomes.append((out.requested_id, out.served_id, out.source.value))
    for k in range(100, 120):
        out = cli.fetch(k, float(k), payload)
        outcomes.append((out.requested_id, out.served_id, out.source.value))
        outcomes.append(cli.update_homophily(3000 + k, payload(k), [k]))
    return outcomes


def ledger(cli):
    """Every degradation-visible counter and the clock's stage totals."""
    snaps = [
        {k: v for k, v in s.items()}
        for s in cli.shard_snapshots()
    ]
    return {
        "degraded_lookups": cli.degraded_lookups,
        "queued": {sid: sorted(w) for sid, w in cli._writes.items()},
        "rpc_calls": cli.transport.calls,
        "rpc_failures": cli.transport.failures,
        "rpc_timeouts": cli.transport.timeouts,
        "per_shard_calls": dict(cli.transport.per_shard_calls),
        "per_shard_failures": dict(cli.transport.per_shard_failures),
        "imp_keys": sorted(cli._loc["imp"]),
        "hom_keys": sorted(cli.homophily._items),
        "len": len(cli),
        "breakers": [b.state.value for b in cli.breakers.values()],
        "snapshots": snaps,
        "clock": cli.clock.breakdown(),
    }


def test_killed_worker_degrades_exactly_like_sim_outage(monkeypatch):
    sim, real = make_twins(monkeypatch)
    try:
        populate(sim)
        populate(real)

        sim.transport.fault_plans[0] = OUTAGE
        real.transport.kill_shard(0)
        # The raw transports agree on what a dead shard *is*.
        with pytest.raises(ShardOutageError):
            real.transport.call(0, "keys", "imp")
        with pytest.raises(ShardOutageError):
            sim.transport.call(0, "keys", "imp")

        assert run_traffic(sim) == run_traffic(real)
        assert ledger(sim) == ledger(real)
        # The fault did bite, on both, identically.
        assert real.degraded_lookups > 0
        assert real._writes[0]  # shard 0's writes wait, none dropped
        assert real.breakers[0].state is BreakerState.OPEN
        assert real.breakers[1].state is BreakerState.CLOSED
    finally:
        real.close()


def test_restarted_worker_rejoins_and_anti_entropy_reconverges(monkeypatch):
    """Kill, then restart: the replacement worker comes back *empty*
    (payloads are soft state), the writes queued for it land with the
    first frame, and ordinary traffic repopulates the shard until its
    contents match the client's placement metadata again."""
    _, real = make_twins(monkeypatch)
    try:
        populate(real)
        real.transport.kill_shard(0)
        run_traffic(real)
        assert real.breakers[0].state is BreakerState.OPEN

        real.transport.restart_shard(0)
        assert real.transport.peek(0, "keys", "imp") == []  # fresh server
        # Lost: what the dead worker held and no queued write replaces.
        queued = set(real._writes.get(0, ()))
        lost_hom = {k for k, s in real._loc["hom"].items()
                    if s == 0 and ("hom", k) not in queued}
        # Let the breaker cooldown elapse on the client's clock so the
        # half-open probe is allowed through.
        real.breakers[0].cooldown_s = 0.05
        real.clock.advance("compute", 0.1)

        real._flush(0)  # the half-open probe, carrying the queued writes
        assert real.breakers[0].state is BreakerState.CLOSED
        for k in range(40):
            out = real.fetch(k % 25, float(k + 1), payload)
            assert out.payload is not None
        for sid in real.transport.shard_ids:
            real._flush(sid)
        assert not real._writes
        # Importance payloads reconverge: a degraded read falls through
        # to the remote tier and the re-admit refreshes the shard copy.
        for sid in real.transport.shard_ids:
            owned = {k for k, s in real._loc["imp"].items() if s == sid}
            held = set(real.transport.peek(sid, "keys", "imp"))
            assert held == owned, sid
        # Homophily payloads are soft state with no refresh path for a
        # resident key — what the dead worker held stays lost, and the
        # placement audit reports exactly that set, nothing else.
        viol = real.verify_placement()
        assert {(layer, key) for layer, key, _, _ in viol} == \
            {("hom", k) for k in lost_hom}
    finally:
        real.close()
