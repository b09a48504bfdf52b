"""Live ring resizing: planning, draining, interruption, verification."""

import numpy as np
import pytest

from repro.dist.client import ShardedCacheClient
from repro.dist.migration import plan_migration
from repro.dist import migration
from repro.dist.ring import ConsistentHashRing
from repro.resilience import breaker
from repro.resilience.faults import FaultPlan, OutageWindow
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency
from tests.dist.helpers import drain, ring_moves

pytestmark = [pytest.mark.dist, pytest.mark.usefixtures("no_jitter")]

FAST = ConstantLatency(base_s=1e-3, bandwidth_bps=1e15)
OUTAGE = FaultPlan(outages=[OutageWindow(0.0, 1e9)])


def payload(i):
    return np.full(4, float(i), dtype=np.float32)


def make_client(n_shards=2, total=40):
    cli = ShardedCacheClient(total, imp_ratio=0.5, n_shards=n_shards,
                             clock=SimClock())
    cli.transport.latency = FAST
    return cli


def migrate_in_batches_of(monkeypatch, size):
    """Resizes plan transfer batches of ``size`` keys (the program's is
    the migration module's ``BATCH_SIZE``)."""
    monkeypatch.setattr(migration, "BATCH_SIZE", size)


def populate(cli, n_imp=20, n_hom=5):
    for k in range(n_imp):
        cli.fetch(k, float(k + 1), payload)
    for k in range(1000, 1000 + n_hom):
        cli.update_homophily(k, payload(k), [k + 10000, k + 20000])
    return cli


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def test_plan_groups_by_layer_src_dst_and_chunks(monkeypatch):
    migrate_in_batches_of(monkeypatch, 16)
    target = ConsistentHashRing(4)
    old = ConsistentHashRing(2)
    keys = list(range(200))
    locations = {"imp": {k: old.shard_for(k) for k in keys}, "hom": {}}
    state = plan_migration(2, target, locations)
    moves = ring_moves(old, target, keys)
    assert state.planned_moves == len(moves)
    planned = {}
    for b in state.pending:
        assert b.layer == "imp"
        assert len(b.keys) <= 16
        assert all(old.shard_for(k) == b.src for k in b.keys)
        assert all(target.shard_for(k) == b.dst for k in b.keys)
        for k in b.keys:
            planned[k] = (b.src, b.dst)
    assert planned == moves  # every mover planned exactly once


def test_plan_skips_keys_already_on_their_target():
    target = ConsistentHashRing(2)
    locations = {"imp": {k: target.shard_for(k) for k in range(50)},
                 "hom": {}}
    state = plan_migration(2, target, locations)
    assert state.planned_moves == 0 and state.done


# ----------------------------------------------------------------------
# drained resizes (grow and shrink)
# ----------------------------------------------------------------------
def test_grow_resize_preserves_every_payload_and_verifies():
    cli = populate(make_client(n_shards=2))
    before = cli.state_dict()
    state = cli.resize(5)  # drains inline
    assert state is not None and state.done
    assert cli.n_shards == 5 and cli.ring.n_shards == 5
    assert sorted(cli.servers) == [0, 1, 2, 3, 4]
    assert cli.verify_placement() == []
    after = cli.state_dict()
    np.testing.assert_array_equal(before["importance"]["payloads"],
                                  after["importance"]["payloads"])
    np.testing.assert_array_equal(before["homophily"]["payloads"],
                                  after["homophily"]["payloads"])
    assert cli.completed_resizes == 1


def test_shrink_resize_retires_servers_and_breakers():
    cli = populate(make_client(n_shards=4))
    cli.resize(2)
    assert sorted(cli.servers) == [0, 1]
    assert sorted(cli.breakers) == [0, 1]
    assert cli.verify_placement() == []
    # All payloads still reachable.
    for k in range(20):
        assert cli.fetch(k, float(k + 1), payload).source.value == "importance"


def test_moved_payloads_are_deleted_from_their_source_shard():
    cli = populate(make_client(n_shards=2))
    cli.resize(4)
    for sid, server in cli.servers.items():
        for layer, loc in (("imp", cli._loc["imp"]), ("hom", cli._loc["hom"])):
            owned = {k for k, s in loc.items() if s == sid}
            assert set(server.keys(layer)) == owned  # no stale copies


def test_noop_and_conflicting_resizes():
    cli = make_client(n_shards=2)
    assert cli.resize(2) is None
    populate(cli)
    cli.transport.fault_plans[1] = OUTAGE
    state = cli.resize(4, drain=False)
    assert state is not None and not state.done
    with pytest.raises(RuntimeError):
        cli.resize(3)
    with pytest.raises(ValueError):
        cli.resize(0)


# ----------------------------------------------------------------------
# incremental / interrupted drains
# ----------------------------------------------------------------------
def test_incremental_drain_serves_lookups_mid_migration(monkeypatch):
    migrate_in_batches_of(monkeypatch, 4)
    cli = populate(make_client(n_shards=2))
    state = cli.resize(5, drain=False)
    total_batches = len(state.pending)
    assert total_batches > 2
    drain(cli, 1)
    assert len(state.pending) == total_batches - 1
    # Location maps stay authoritative: every key still serves.
    for k in range(20):
        assert cli.fetch(k, float(k + 1), payload).source.value == "importance"
    # Mid-migration violations are exactly the not-yet-moved keys.
    assert len(cli.verify_placement()) > 0
    while cli.migration is not None:
        drain(cli, 2)
    assert cli.verify_placement() == []
    assert cli.n_shards == 5


def test_new_admits_mid_migration_land_on_the_target_ring(monkeypatch):
    migrate_in_batches_of(monkeypatch, 4)
    cli = populate(make_client(n_shards=2))
    cli.resize(5, drain=False)
    target = cli.migration.target_ring
    new_key = 777
    cli.fetch(new_key, 99.0, payload)
    assert cli._loc["imp"][new_key] == target.shard_for(new_key)
    cli.continue_migration()
    assert cli.verify_placement() == []


def test_keys_evicted_mid_migration_are_skipped(monkeypatch):
    migrate_in_batches_of(monkeypatch, 2)
    cli = make_client(n_shards=2, total=8)
    for k in range(4):
        cli.fetch(k, float(k + 1), payload)
    state = cli.resize(4, drain=False)
    planned = state.planned_moves
    assert planned > 0
    # Evict every planned mover by admitting higher-scoring keys before
    # any batch runs; voided batches must not resurrect them.
    for k in range(100, 104):
        cli.fetch(k, float(k), payload)
    cli.continue_migration()
    assert cli.migration is None
    assert state.moved_keys <= planned
    assert cli.verify_placement() == []


def test_failed_batches_rotate_and_replay_after_recovery(monkeypatch):
    migrate_in_batches_of(monkeypatch, 4)
    monkeypatch.setattr(breaker, "FAILURE_THRESHOLD", 1000)
    cli = populate(make_client(n_shards=2))
    # Shard 1 is down: batches touching it fail and stay pending.
    cli.transport.fault_plans[1] = OUTAGE
    state = cli.resize(4, drain=False)
    cli.continue_migration()
    assert state.failed_batches > 0
    assert not state.done  # stalled, not lost
    stalled = len(state.pending)
    cli.continue_migration()  # still down: each batch attempted once more
    assert len(state.pending) == stalled
    cli.transport.fault_plans[1] = None
    cli.continue_migration()
    assert cli.migration is None
    assert cli.verify_placement() == []
    # Every payload survived the stall-and-replay.
    for k in range(20):
        assert cli.fetch(k, float(k + 1), payload).source.value == "importance"


def test_migrate_in_replay_is_idempotent():
    """An ambiguously timed-out migrate_in that secretly executed is
    simply overwritten when the batch replays."""
    cli = populate(make_client(n_shards=2))
    state = cli.resize(4, drain=False)
    batch = state.pending[0]
    entries = {k: payload(k) for k in batch.keys}
    cli.servers[batch.dst].migrate_in(batch.layer, entries)  # "lost" reply
    cli.continue_migration()  # replays the whole batch
    assert cli.migration is None
    assert cli.verify_placement() == []


def test_migrate_in_survives_a_delete_queued_on_its_target():
    """Ring round trip 1 -> 2 -> 1 with shard 0 down through the first
    leg: a key evicted from shard 0 (then re-admitted on shard 1) leaves a
    delete queued there. Moving the key back lands it on shard 0, and the
    flush that the landing call's success triggers must not destroy it; a
    move that fails keeps the queued delete."""
    cli = make_client(n_shards=1, total=4)
    key = next(k for k in range(100) if cli.ring.spawn(2).shard_for(k) == 1)
    cli.fetch(key, 1.0, payload)
    assert cli._loc["imp"][key] == 0
    cli.resize(2, drain=False)
    cli.transport.fault_plans[0] = OUTAGE
    cli.importance.resize(0)  # the delete on shard 0 fails: queued
    assert ("imp", key) in cli._pending_deletes[0]
    cli.importance.resize(2)
    cli.fetch(key, 1.0, payload)  # re-admitted on the target ring's shard 1
    assert cli._loc["imp"][key] == 1
    cli.continue_migration()  # the key's batch is void: nothing left on 0
    assert cli.migration is None and cli.n_shards == 2

    cli.resize(1, drain=False)
    cli.continue_migration()  # shard 0 still down: the batch fails...
    assert ("imp", key) in cli._pending_deletes[0]  # ...and keeps its repair
    cli.transport.fault_plans[0] = None
    cli.clock.advance("compute", 1.0)  # past shard 0's breaker cool-down
    cli.continue_migration()  # moves the key back onto shard 0
    assert cli.migration is None
    assert cli.verify_placement() == []
    out = cli.fetch(key, 1.0, payload)
    assert out.source.value == "importance"
    np.testing.assert_array_equal(out.payload, payload(key))


def test_continue_migration_without_resize_is_a_noop():
    cli = make_client()
    assert cli.continue_migration() is None
