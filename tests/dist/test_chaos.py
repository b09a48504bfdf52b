"""Chaos: outages, brownouts and timeouts while traffic keeps flowing.

The scenarios here drive the whole fault surface at once and assert the
system's load-bearing promises: no exception escapes, capacity/metadata
invariants hold, an admit during an outage is decided as the monolith
decides it and its payload waits in the write queue, and the queues
reconverge shard contents with client metadata once they drain.

Timing note: breaker fail-fast paths advance *zero* simulated time, so
recovery must advance the clock (the real trainer's compute time) or
cooldowns never elapse.
"""

import numpy as np
import pytest

from repro.core.semantic_cache import SemanticCache
from repro.dist.client import ShardedCacheClient
from repro.dist.retry import RetryPolicy
from repro.resilience import breaker
from repro.resilience.faults import BrownoutWindow, FaultPlan, OutageWindow
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency

pytestmark = [pytest.mark.dist, pytest.mark.usefixtures("no_jitter")]

FAST = ConstantLatency(base_s=1e-3, bandwidth_bps=1e15)
OUTAGE = FaultPlan(outages=[OutageWindow(0.0, 1e9)])
TOTAL = 40


def payload(i):
    return np.full(4, float(i), dtype=np.float32)


def make_client(**kw):
    cli = ShardedCacheClient(TOTAL, imp_ratio=0.5, n_shards=2,
                             clock=SimClock(), **kw)
    cli.transport.latency = FAST
    return cli


@pytest.fixture
def breakers_never_open(monkeypatch):
    monkeypatch.setattr(breaker, "FAILURE_THRESHOLD", 1000)


def populate(cli, n_imp=20, n_hom=5):
    for k in range(n_imp):
        cli.fetch(k, float(k + 1), payload)
    for k in range(1000, 1000 + n_hom):
        cli.update_homophily(k, payload(k), [k + 10000])


def land(cli):
    """Send every shard's queued writes: later reads then cross the
    (faulty) channel instead of being served from the queue."""
    for sid in cli.servers:
        cli._flush(sid)
    assert not cli._writes


def check_invariants(cli):
    """The promises no fault schedule may break."""
    assert len(cli) <= cli.total_capacity
    assert len(cli.importance) <= cli.importance.capacity
    assert len(cli.homophily) <= cli.homophily.capacity
    cli.importance.check_invariants()
    assert set(cli.importance._items) == set(cli._loc["imp"])
    assert set(cli.homophily._items) == set(cli._loc["hom"])
    snaps = cli.shard_snapshots()
    assert sum(s["imp_len"] for s in snaps) == len(cli._loc["imp"])
    assert sum(s["hom_len"] for s in snaps) == len(cli.homophily)
    # FIFO order, insertion counters and cover map describe one set.
    hom = cli.homophily
    assert sorted(hom._seq, key=hom._seq.get) == list(hom._items)
    cover = {}
    for key, neigh in hom._items.items():
        for n in neigh:
            cover.setdefault(n, set()).add(key)
    assert hom._neighbor_of == cover


def test_admits_during_outage_are_queued_not_dropped(breakers_never_open):
    """Every shard down: each admit, Homophily refresh and eviction is
    decided exactly as the monolith decides it, and the payloads wait in
    the write queue, served from there. A read that does cross the
    channel fails, and its frame puts back the writes it carried; after
    the outage the queues drain and the shards hold what the metadata
    owns."""
    cli, mono = make_client(), SemanticCache(TOTAL, imp_ratio=0.5)
    for cache in (cli, mono):
        populate(cache)
    land(cli)
    calls = cli.transport.calls
    cli.transport.fault_plans[0] = OUTAGE
    cli.transport.fault_plans[1] = OUTAGE
    for k in range(100, 110):  # misses and refreshes: decided, queued
        for cache in (cli, mono):
            assert cache.fetch(k, float(k), payload).source.value == "remote"
            assert cache.update_homophily(3000 + k, payload(k), [k])
    assert cli.transport.calls == calls  # not one frame was needed
    assert cli.dropped_admits == 0
    assert list(cli.importance._items) == list(mono.importance._items)
    assert cli.homophily._items == mono.homophily._items
    assert cli.importance.stats == mono.importance.stats
    assert cli.homophily.stats == mono.homophily.stats
    check_invariants(cli)
    # Ten admits, their ten victims' deletes, ten Homophily puts.
    assert sum(map(len, cli._writes.values())) == 30
    # A queued payload is served with no RPC while its shard is down...
    out = cli.fetch(109, 109.0, payload)
    assert out.source.value == "importance" and cli.transport.calls == calls
    np.testing.assert_array_equal(out.payload, payload(109))
    # ...a landed one is not: the read fails and its frame puts the
    # writes it carried back, next to the refresh the miss admitted.
    shard = cli._loc["imp"][15]
    carried = dict(cli._writes[shard])
    assert cli.fetch(15, 16.0, payload).source.value == "remote"
    assert cli.degraded_lookups == 1 and cli.transport.failures > 0
    assert all(cli._writes[shard][k] is v for k, v in carried.items())
    assert set(cli._writes[shard]) == set(carried) | {("imp", 15)}
    check_invariants(cli)
    # Recovery: one frame per shard lands everything; nothing was lost.
    cli.transport.fault_plans[0] = None
    cli.transport.fault_plans[1] = None
    cli.clock.advance("compute", 1.0)
    land(cli)
    assert cli.verify_placement() == []
    for sid, server in cli.servers.items():
        for layer, loc in cli._loc.items():
            assert set(server.keys(layer)) == \
                {k for k, s in loc.items() if s == sid}
    cli.fetch(500, 500.0, payload)
    assert 500 in cli.importance


def test_brownout_timeouts_leave_shards_consistent(breakers_never_open):
    """Brownout-induced timeouts are ambiguous — the mutation lands even
    though the caller saw a failure. Idempotent servers + anti-entropy
    must still converge shard contents to the metadata."""
    cli = make_client(retry=RetryPolicy(max_attempts=2))
    populate(cli)
    land(cli)
    # 20x latency pushes every call over the 10 ms deadline for a while.
    plan = FaultPlan(brownouts=[BrownoutWindow(0.0, 0.15,
                                               latency_multiplier=20.0)])
    cli.transport.fault_plans[0] = plan
    cli.transport.fault_plans[1] = plan
    for k in range(60):  # reads of residents carry the queued writes
        cli.fetch(k, float(k + 1), payload)
    assert cli.transport.timeouts > 0  # the window did bite
    check_invariants(cli)
    # Past the window (clock advanced via charged deadlines/backoffs),
    # traffic is clean again; drain the write queues.
    assert cli.clock.total_seconds > 0.15
    for k in list(cli._loc["imp"])[:10]:
        assert cli.fetch(k, 1000.0, payload).payload is not None
    land(cli)
    for sid, server in cli.servers.items():
        for layer, loc in (("imp", cli._loc["imp"]), ("hom", cli._loc["hom"])):
            owned = {k for k, s in loc.items() if s == sid}
            # No payload the metadata owns may be missing, none it
            # dropped may linger: a timed-out frame's writes, applied
            # anyway and sent again, are idempotent.
            assert set(server.keys(layer)) == owned
    check_invariants(cli)


def test_total_blackout_degrades_every_stage_and_recovers(breakers_never_open):
    """Remote tier AND all shards down: degraded mode keeps serving
    substitutes from whatever payloads are still reachable — here none —
    so every request skips, and nothing corrupts."""
    cli = make_client()
    populate(cli)
    land(cli)

    def dead_remote(i):
        return None  # remote tier unreachable

    cli.transport.fault_plans[0] = OUTAGE
    cli.transport.fault_plans[1] = OUTAGE
    outcomes = [cli.fetch(k, float(k + 1), dead_remote) for k in range(30)]
    assert all(o.source.value in ("degraded", "skipped") for o in outcomes)
    assert cli.skipped + cli.stats.degraded_serves == 30
    check_invariants(cli)
    cli.transport.fault_plans[0] = None
    cli.transport.fault_plans[1] = None
    cli.clock.advance("compute", 1.0)
    out = cli.fetch(0, 1.0, payload)
    assert out.payload is not None and out.source.value == "importance"


# ----------------------------------------------------------------------
# the batch entry under faults: invariants, not equality — the extra
# frame attempt moves the sim clock and the breaker's failure count, so
# a faulted fetch_many run need not retrace the per-request run.
# ----------------------------------------------------------------------
FAULTS = {
    "outage": OUTAGE,
    # 5x a 1 ms call stays under the 10 ms deadline: slow, never failing.
    "brownout": FaultPlan(brownouts=[BrownoutWindow(0.0, 1e9, 5.0)]),
    # 20x does not: every call executes server-side, the reply is lost.
    "timeout": FaultPlan(brownouts=[BrownoutWindow(0.0, 1e9, 20.0)]),
}
# Residents of both shards, neighbours two homophily nodes cover, a node
# itself, repeats, and high-scored misses whose admits evict residents
# requested later in the same batch.
BATCH = [0, 1, 11000, 2, 100, 3, 3, 101, 11001, 1001, 4, 102, 0, 5, 103,
         11000, 6, 104, 7]


def assert_batch_closed(cli):
    for store in (cli.importance.store, cli.homophily.store):
        assert not store.ahead and not store.unread


def assert_reconverges(cli):
    """Faults over, breakers cooled, write queues drained: every shard
    holds exactly the payloads the metadata places there — no write was
    lost on the way, no owned payload destroyed."""
    for sid in cli.servers:
        cli.transport.fault_plans[sid] = None
    cli.clock.advance("compute", 1.0)
    assert cli.verify_placement() == []  # queued writes counted
    land(cli)
    assert cli.verify_placement() == []
    for sid, server in cli.servers.items():
        for layer, loc in cli._loc.items():
            assert set(server.keys(layer)) == \
                {k for k, s in loc.items() if s == sid}


@pytest.mark.parametrize("when", ["before", "mid"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fetch_many_under_a_shard_fault(fault, when):
    """Two batches. A fault from the start fails the first batch's
    opening frame; one that starts mid-batch meets no frame in that
    batch (its writes are queued) and fails the second batch's, which
    carries them."""
    cli = make_client()
    populate(cli)
    land(cli)
    served_before = cli.stats.requests
    remote_calls = []

    def remote(i):
        remote_calls.append(i)
        if when == "mid" and len(remote_calls) == 2:
            cli.transport.fault_plans[0] = FAULTS[fault]
        return payload(i)

    if when == "before":
        cli.transport.fault_plans[0] = FAULTS[fault]
    scores = [float(i + 1) for i in BATCH]
    for batch in (1, 2):
        outs = cli.fetch_many(BATCH, scores, remote)
        # Every request is served, by the next Fig. 9 stage if need be,
        # with the bytes that belong to the id it reports.
        assert [o.requested_id for o in outs] == BATCH
        for o in outs:
            np.testing.assert_array_equal(o.payload, payload(o.served_id))
        failed = cli.transport.failures + cli.transport.timeouts
        if fault == "brownout":
            assert failed == 0 and cli.degraded_lookups == 0
        elif when == "before":  # the frame failed: its keys fell back
            assert failed > 0 and cli.degraded_lookups > 0
        else:
            assert (failed > 0) == (batch == 2)
        assert_batch_closed(cli)
        check_invariants(cli)
    st = cli.stats
    assert st.hits + st.substitute_hits + st.misses + st.degraded_serves \
        == served_before + 2 * len(BATCH)
    assert st.misses - 20 == len(remote_calls)  # populate() missed 20x
    assert_reconverges(cli)
    check_invariants(cli)


def test_fetch_many_that_raises_leaves_nothing_behind():
    """A ``remote_get`` that raises mid-batch propagates (only a ``None``
    answer is served degraded); the read-ahead buffers are dropped and
    the writes queued so far still leave."""
    cli = make_client()
    populate(cli)

    def remote(i):
        if i == 102:
            raise RuntimeError("remote tier down")
        return payload(i)

    with pytest.raises(RuntimeError, match="remote tier down"):
        cli.fetch_many(BATCH, [float(i + 1) for i in BATCH], remote)
    assert 100 in cli.importance and 101 in cli.importance  # got that far
    assert_batch_closed(cli)
    check_invariants(cli)
    assert_reconverges(cli)
