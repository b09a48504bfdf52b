"""RPC deadlines, failure classification, retry/backoff, breakers.

Everything runs on the simulated clock, so the schedules asserted here
are exact: an outage charges the capped round-trip, a timeout charges
exactly the deadline (and the call still executes server-side), and a
burned retry budget charges ``attempts x cost + sum(backoffs)``.
"""

import pytest

from repro.dist import retry as retry_module
from repro.dist.retry import RetryPolicy
from repro.dist.rpc import (
    RPC_OVERHEAD_NBYTES,
    RpcError,
    RpcTimeoutError,
    ShardOutageError,
    SimRpcChannel,
)
from repro.dist.client import ShardedCacheClient
from repro.resilience import breaker as breaker_module
from repro.resilience.breaker import BreakerState
from repro.resilience.faults import BrownoutWindow, FaultPlan, OutageWindow
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency

pytestmark = [pytest.mark.dist, pytest.mark.usefixtures("no_jitter")]

#: Deterministic sub-deadline per-call latency (bandwidth term ~0).
FAST = ConstantLatency(base_s=1e-3, bandwidth_bps=1e15)
OUTAGE = FaultPlan(outages=[OutageWindow(0.0, 1e9)])


def make_channel(deadline_s=0.01, fault_plans=None, n_shards=1):
    ch = SimRpcChannel(clock=SimClock(), deadline_s=deadline_s)
    ch.latency = FAST
    for shard in range(n_shards):
        ch.add_shard(shard)
    for shard, plan in (fault_plans or {}).items():
        ch.fault_plans[shard] = plan
    return ch


def make_client(**kw):
    cli = ShardedCacheClient(8, imp_ratio=0.5, n_shards=1, clock=SimClock(),
                             **kw)
    cli.transport.latency = FAST
    return cli


def landed_client(**kw):
    """A client whose 4-slot importance layer holds keys 0-3, their
    payloads landed on the shard (so reading one crosses the channel)."""
    cli = make_client(**kw)
    for k in range(4):
        cli.fetch(k, float(k + 1), lambda i: [float(i)])
    cli._flush(0)
    assert sorted(cli.servers[0].keys("imp")) == [0, 1, 2, 3]
    return cli


def set_backoff(monkeypatch, base_s, multiplier, cap_s):
    for name, value in (("BACKOFF_BASE_S", base_s),
                        ("BACKOFF_MULTIPLIER", multiplier),
                        ("BACKOFF_CAP_S", cap_s)):
        monkeypatch.setattr(retry_module, name, value)


# ----------------------------------------------------------------------
# channel: classification and time accounting
# ----------------------------------------------------------------------
def test_successful_call_charges_sampled_latency_to_rpc_stage():
    ch = make_channel()
    ch.call(0, "bulk_write", [("imp", 1, [1.0])], nbytes=0)
    assert ch.clock.stage_seconds("rpc") == pytest.approx(
        FAST.sample(RPC_OVERHEAD_NBYTES)
    )
    assert (ch.calls, ch.failures, ch.timeouts) == (1, 0, 0)


def test_outage_never_executes_and_charges_capped_roundtrip():
    ch = make_channel(fault_plans={0: OUTAGE})
    with pytest.raises(ShardOutageError):
        ch.call(0, "bulk_write", [("imp", 1, [1.0])])
    assert ch.servers[0].keys("imp") == []  # definitely not executed
    assert ch.clock.stage_seconds("rpc") == pytest.approx(1e-3)
    assert (ch.failures, ch.timeouts) == (1, 0)
    assert ch.per_shard_failures[0] == 1


def test_outage_roundtrip_is_capped_at_the_deadline():
    ch = make_channel(deadline_s=5e-4, fault_plans={0: OUTAGE})
    with pytest.raises(ShardOutageError):
        ch.call(0, "get", "imp", 1)
    assert ch.clock.stage_seconds("rpc") == pytest.approx(5e-4)


def test_timeout_charges_deadline_and_executes_server_side():
    """The ambiguous failure mode: the caller gives up, the mutation
    lands anyway — why every server mutation must be idempotent."""
    ch = make_channel(deadline_s=5e-4)  # below FAST's 1 ms
    with pytest.raises(RpcTimeoutError):
        ch.call(0, "bulk_write", [("imp", 7, [1.0])])
    assert len(ch.servers[0].keys("imp")) == 1  # it DID execute
    assert ch.clock.stage_seconds("rpc") == pytest.approx(5e-4)
    assert (ch.failures, ch.timeouts) == (0, 1)


def test_brownout_inflates_latency_into_a_timeout_not_an_outage():
    plan = FaultPlan(brownouts=[BrownoutWindow(0.0, 1e9,
                                               latency_multiplier=100.0)])
    ch = make_channel(fault_plans={0: plan})
    with pytest.raises(RpcTimeoutError):
        ch.call(0, "get", "imp", 1)
    assert ch.timeouts == 1 and ch.failures == 0


def test_brownout_below_deadline_still_succeeds():
    plan = FaultPlan(brownouts=[BrownoutWindow(0.0, 1e9,
                                               latency_multiplier=5.0)])
    ch = make_channel(fault_plans={0: plan})
    assert ch.call(0, "get", "imp", 1) is None  # absent key, but call OK
    assert ch.clock.stage_seconds("rpc") == pytest.approx(
        5.0 * FAST.sample(RPC_OVERHEAD_NBYTES)
    )


def test_unknown_shard_is_a_plain_rpc_error():
    ch = make_channel()
    with pytest.raises(RpcError):
        ch.call(7, "get", "imp", 1)


# ----------------------------------------------------------------------
# retry policy: deterministic backoff schedules
# ----------------------------------------------------------------------
def _schedule(policy, request_id):
    """The waits one request would follow if every attempt failed."""
    return [
        policy.backoff_s(request_id, a) for a in range(policy.max_attempts - 1)
    ]


def test_backoff_schedule_without_jitter_is_exact(monkeypatch):
    set_backoff(monkeypatch, 1e-3, 2.0, 3e-3)
    p = RetryPolicy(max_attempts=4)
    assert _schedule(p, 0) == pytest.approx([1e-3, 2e-3, 3e-3])  # capped
    assert _schedule(p, 123) == _schedule(p, 0)  # jitter off => id-independent


def test_jittered_backoff_is_deterministic_and_bounded(monkeypatch):
    monkeypatch.setattr(retry_module, "JITTER", 0.5)
    p = RetryPolicy(max_attempts=5)
    q = RetryPolicy(max_attempts=5)
    for rid in (0, 1, 999):
        sched = _schedule(p, rid)
        assert sched == _schedule(q, rid)  # same seed => bit-identical
        for a, wait in enumerate(sched):
            raw = min(retry_module.BACKOFF_CAP_S,
                      retry_module.BACKOFF_BASE_S
                      * retry_module.BACKOFF_MULTIPLIER ** a)
            assert 0.5 * raw <= wait <= raw
    # Different request ids decorrelate.
    assert _schedule(p, 0) != _schedule(p, 1)
    # Different seeds give different schedules.
    first = _schedule(p, 0)
    monkeypatch.setattr(retry_module, "JITTER_SEED", 7)
    assert _schedule(p, 0) != first


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy().backoff_s(0, -1)


# ----------------------------------------------------------------------
# client: retries, budget exhaustion, degraded misses
# ----------------------------------------------------------------------
def test_budget_exhaustion_surfaces_as_degraded_miss_not_exception():
    """A cached key whose shard is down must degrade to a miss — the
    fetch protocol re-fetches from the remote tier instead of raising."""
    cli = landed_client()
    cli.transport.fault_plans[0] = OUTAGE
    out = cli.fetch(1, 5.0, lambda i: [float(i)])
    assert out.payload == [1.0]  # served, from remote
    assert out.source.value == "remote"
    assert cli.degraded_lookups == 1  # the imp probe degraded
    assert cli.dropped_admits == 0
    assert cli._writes == {0: {("imp", 1): [1.0]}}  # the refresh waits
    assert 1 in cli.importance
    assert cli.stats.misses == 5 and cli.stats.hits == 0  # 4 cold + 1


def test_burned_budget_charges_attempts_plus_backoffs(monkeypatch):
    set_backoff(monkeypatch, 1e-3, 2.0, 1.0)
    monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 100)
    cli = landed_client(retry=RetryPolicy(max_attempts=3))
    cli.transport.fault_plans[0] = OUTAGE
    before = cli.clock.stage_seconds("rpc")
    cli.fetch(1, 5.0, lambda i: [float(i)])
    spent = cli.clock.stage_seconds("rpc") - before
    # One logical request (the get probe; the refresh put is queued):
    # 3 outage attempts at 1 ms + backoffs 1 ms + 2 ms.
    assert spent == pytest.approx(3 * 1e-3 + 1e-3 + 2e-3)
    assert cli.rpc_retries == 2


def test_retries_recover_from_a_transient_outage_window(monkeypatch):
    """An outage shorter than the backoff schedule is ridden out: the
    final attempt of the write frame lands after the window closes."""
    set_backoff(monkeypatch, 2e-3, 2.0, 1.0)
    cli = make_client(retry=RetryPolicy(max_attempts=3))
    cli.transport.fault_plans[0] = FaultPlan(outages=[OutageWindow(0.0, 0.004)])
    out = cli.fetch(1, 5.0, lambda i: [float(i)])  # a miss: put queued
    assert out.source.value == "remote" and cli.transport.calls == 0
    # Window [0, 4ms): attempt 1 at t=0 fails (+1ms rpc, +2ms backoff),
    # attempt 2 at t=3ms fails (+1ms, +4ms backoff), attempt 3 at t=8ms OK.
    cli._flush(0)
    assert cli.servers[0].keys("imp") == [1] and not cli._writes
    assert 1 in cli.importance
    assert cli.rpc_retries == 2
    assert cli.transport.failures == 2


# ----------------------------------------------------------------------
# client: per-shard circuit breakers
# ----------------------------------------------------------------------
def test_breaker_opens_after_threshold_and_fails_fast_without_time():
    cli = landed_client()  # 3 failures open a breaker; 0.05 s cool-down
    cli.transport.fault_plans[0] = OUTAGE
    cli.fetch(1, 5.0, lambda i: [float(i)])  # 3 failed attempts -> open
    br = cli.breakers[0]
    assert br.state is BreakerState.OPEN
    before = cli.clock.total_seconds
    cli.fetch(2, 5.0, lambda i: [float(i)])  # rejected at the breaker
    assert cli.clock.total_seconds == before  # fail-fast: zero time
    assert br.fast_failures == 1  # the imp probe; the refresh is queued
    assert cli.shard_snapshots()[0]["breaker"] == "open"


def test_breaker_half_open_probe_then_close_on_recovery():
    cli = landed_client()
    cli.transport.fault_plans[0] = OUTAGE
    cli.fetch(1, 5.0, lambda i: [float(i)])
    assert cli.breakers[0].state is BreakerState.OPEN
    cli.transport.fault_plans[0] = None  # shard recovers...
    cli.fetch(2, 5.0, lambda i: [float(i)])  # ...but cooldown not elapsed
    assert cli.breakers[0].state is BreakerState.OPEN
    # Simulated time passes (the trainer's compute between epochs).
    cli.clock.advance("compute", 0.1)
    out = cli.fetch(3, 5.0, lambda i: [float(i)])  # half-open probe passes
    assert out.source.value == "importance"
    br = cli.breakers[0]
    assert br.state is BreakerState.CLOSED
    transitions = [(e.old.value, e.new.value) for e in br.events]
    assert transitions == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_half_open_failure_reopens_with_fresh_cooldown():
    cli = landed_client()
    cli.transport.fault_plans[0] = OUTAGE
    cli.fetch(1, 5.0, lambda i: [float(i)])
    cli.clock.advance("compute", 0.1)  # cooldown elapses, outage persists
    cli.fetch(2, 5.0, lambda i: [float(i)])  # probe fails -> reopen
    br = cli.breakers[0]
    assert br.state is BreakerState.OPEN
    assert br.opens == 2
    assert ("half_open", "open") in [
        (e.old.value, e.new.value) for e in br.events
    ]


def test_queued_repair_rides_the_first_frame_after_recovery(monkeypatch):
    """Writes queued during an outage — an admit, its victim's delete,
    the refresh of a key whose read failed — survive the frame that
    failed carrying them and ride the first frame after recovery,
    costing no RPC of their own."""
    monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 100)
    cli = landed_client()
    cli.transport.fault_plans[0] = OUTAGE
    cli.fetch(9, 9.0, lambda i: [float(i)])  # admitted, evicting 0
    assert 9 in cli.importance and 0 not in cli.importance
    queued = dict(cli._writes[0])
    assert queued == {("imp", 9): [9.0], ("imp", 0): None}
    cli.fetch(1, 1.0, lambda i: [float(i)])  # its read fails, and the frame
    assert cli.transport.failures > 0  # that carried the writes put them back
    assert cli._writes[0] == {**queued, ("imp", 1): [1.0]}
    assert sorted(cli.servers[0].keys("imp")) == [0, 1, 2, 3]  # not yet
    assert cli.verify_placement() == []  # counting the queue
    cli.transport.fault_plans[0] = None
    before = cli.transport.calls
    cli.fetch(2, 1.0, lambda i: [float(i)])  # hit: its frame carries them
    assert cli.transport.calls - before == 1
    assert not cli._writes
    assert cli.verify_placement() == []
    assert sorted(cli.servers[0].keys("imp")) == [1, 2, 3, 9]
