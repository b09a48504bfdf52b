"""Chaos: outages, brownouts and timeouts while traffic keeps flowing.

The scenarios here drive the whole fault surface at once and assert the
system's load-bearing promises: no exception escapes, capacity/metadata
invariants hold, dropped admits leave metadata untouched, and the
anti-entropy queues reconverge shard contents with client metadata.

Timing note: breaker fail-fast paths advance *zero* simulated time, so
recovery must advance the clock (the real trainer's compute time) or
cooldowns never elapse.
"""

import numpy as np
import pytest

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


def test_admits_during_outage_are_dropped_not_corrupting(breakers_never_open):
    cli = make_client()
    populate(cli)
    before_len = len(cli)
    before_keys = set(cli._loc["imp"]) | set(cli.homophily._items)
    cli.transport.fault_plans[0] = OUTAGE
    cli.transport.fault_plans[1] = OUTAGE
    for k in range(100, 140):
        cli.fetch(k, float(k), payload)  # every admit put fails
        cli.update_homophily(3000 + k, payload(k), [k])
    assert cli.dropped_admits == 80
    assert len(cli) == before_len  # metadata untouched
    assert set(cli._loc["imp"]) | set(cli.homophily._items) == before_keys
    check_invariants(cli)
    # Recovery: the cache works again and can admit.
    cli.transport.fault_plans[0] = None
    cli.transport.fault_plans[1] = None
    cli.clock.advance("compute", 1.0)
    cli.fetch(500, 500.0, payload)
    assert 500 in cli.importance


def test_brownout_timeouts_leave_shards_consistent(breakers_never_open):
    """Brownout-induced timeouts are ambiguous — the mutation lands even
    though the caller saw a failure. Idempotent servers + anti-entropy
    must still converge shard contents to the metadata."""
    cli = make_client(retry=RetryPolicy(max_attempts=2))
    populate(cli)
    # 20x latency pushes every call over the 10 ms deadline for a while.
    plan = FaultPlan(brownouts=[BrownoutWindow(0.0, 0.15,
                                               latency_multiplier=20.0)])
    cli.transport.fault_plans[0] = plan
    cli.transport.fault_plans[1] = plan
    for k in range(20, 60):
        cli.fetch(k, float(k + 1), payload)
    assert cli.transport.timeouts > 0  # the window did bite
    check_invariants(cli)
    # Past the window (clock advanced via charged deadlines/backoffs),
    # traffic is clean again; drain the repair queues.
    assert cli.clock.total_seconds > 0.15
    for k in list(cli._loc["imp"])[:10]:
        assert cli.fetch(k, 1000.0, payload).payload is not None
    for sid in cli.servers:
        cli._flush(sid)
    for sid, server in cli.servers.items():
        for layer, loc in (("imp", cli._loc["imp"]), ("hom", cli._loc["hom"])):
            owned = {k for k, s in loc.items() if s == sid}
            # No payload the metadata owns may be missing; orphans from
            # ambiguous timeouts have been repaired away.
            assert set(server.keys(layer)) == owned
    check_invariants(cli)


def test_total_blackout_degrades_every_stage_and_recovers(breakers_never_open):
    """Remote tier AND all shards down: degraded mode keeps serving
    substitutes from whatever payloads are still reachable — here none —
    so every request skips, and nothing corrupts."""
    cli = make_client()
    populate(cli)

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
    assert not cli._batch_open
    for store in (cli.importance.store, cli.homophily.store):
        assert not store.ahead and not store.unread


def assert_reconverges(cli):
    """Faults over, breakers cooled, anti-entropy run: every shard holds
    exactly the payloads the metadata places there — no victim delete
    was lost on the way, no owned payload destroyed."""
    for sid in cli.servers:
        cli.transport.fault_plans[sid] = None
    cli.clock.advance("compute", 1.0)
    for sid in cli.servers:
        cli._flush(sid)
    assert not any(cli._deletes.values())
    assert cli.verify_placement() == []
    for sid, server in cli.servers.items():
        for layer, loc in cli._loc.items():
            assert set(server.keys(layer)) == \
                {k for k, s in loc.items() if s == sid}


@pytest.mark.parametrize("when", ["before", "mid"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fetch_many_under_a_shard_fault(fault, when):
    cli = make_client()
    populate(cli)
    served_before = cli.stats.requests
    remote_calls = []

    def remote(i):
        remote_calls.append(i)
        if when == "mid" and len(remote_calls) == 2:
            cli.transport.fault_plans[0] = FAULTS[fault]
        return payload(i)

    if when == "before":
        cli.transport.fault_plans[0] = FAULTS[fault]
    outs = cli.fetch_many(BATCH, [float(i + 1) for i in BATCH], remote)

    # Every request is served, by the next Fig. 9 stage if need be, with
    # the bytes that belong to the id it reports.
    assert [o.requested_id for o in outs] == BATCH
    for o in outs:
        np.testing.assert_array_equal(o.payload, payload(o.served_id))
    st = cli.stats
    assert st.hits + st.substitute_hits + st.misses + st.degraded_serves \
        == served_before + len(BATCH)
    assert st.misses - 20 == len(remote_calls)  # populate() missed 20x
    if fault == "brownout":
        assert cli.transport.failures == cli.transport.timeouts == 0
        assert cli.degraded_lookups == cli.dropped_admits == 0
    else:
        assert cli.transport.failures + cli.transport.timeouts > 0
        if when == "before":  # the frame failed: its keys fell back
            assert cli.degraded_lookups > 0
    assert_batch_closed(cli)
    check_invariants(cli)
    assert_reconverges(cli)
    check_invariants(cli)


def test_fetch_many_that_raises_leaves_nothing_behind():
    """A ``remote_get`` that raises mid-batch propagates (only a ``None``
    answer is served degraded); the read-ahead buffers are dropped and
    the victims parked so far still leave."""
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
