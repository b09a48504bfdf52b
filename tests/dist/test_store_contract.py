"""Payload-store contract: what the cache layers may assume of a store.

The Fig. 9 policy exists once (``repro.core``) and talks to payload bytes
through :class:`~repro.cache.payload_store.PayloadStore`. Bit-identity of
the sharded tier then rests on two things: the layers *are* the
monolith's classes (checked at the bottom), and every store honours this
contract — checked here for the in-process dict and for the shard-tier
store at K in {1, 2, 4} over the simulated transport (and over real
worker processes under the ``wallclock`` marker).
"""

import numpy as np
import pytest

from repro.core.homophily_cache import HomophilyCache
from repro.core.importance_cache import ImportanceCache
from repro.cache.payload_store import LocalPayloadStore
from repro.core.semantic_cache import SemanticCache
from repro.dist.client import ShardedCacheClient, ShardStore
from repro.dist.retry import RetryPolicy
from repro.resilience.faults import FaultPlan, OutageWindow
from repro.storage.clock import SimClock

pytestmark = pytest.mark.dist

OUTAGE = FaultPlan(outages=[OutageWindow(0.0, 1e9)])
REAL = pytest.mark.wallclock


def payload(i):
    return np.full(4, float(i), dtype=np.float32)


def make_client(transport, n_shards):
    if transport == "real":
        return ShardedCacheClient(64, n_shards=n_shards, transport="real",
                                  deadline_s=30.0)
    return ShardedCacheClient(64, n_shards=n_shards, clock=SimClock(),
                              retry=RetryPolicy(max_attempts=1))


@pytest.fixture(params=[
    ("local", 0),
    ("sim", 1), ("sim", 2), ("sim", 4),
    pytest.param(("real", 1), marks=REAL),
    pytest.param(("real", 2), marks=REAL),
    pytest.param(("real", 4), marks=REAL),
], ids=lambda p: f"{p[0]}-{p[1]}")
def store(request):
    """``(store, hit_counters)``: a fresh store of each kind plus a
    callable returning every hit counter a read could move."""
    kind, n_shards = request.param
    if kind == "local":
        yield LocalPayloadStore(), lambda: ()
        return
    client = make_client(kind, n_shards)
    try:
        yield client.importance.store, lambda: [
            (s["imp_hits"], s["hom_hits"], s["hom_substitute_hits"])
            for s in client.shard_snapshots()
        ]
    finally:
        client.close()


def test_put_get_delete_round_trip(store):
    st, _ = store
    assert st.get(7) is None and st.peek(7) is None
    for k in range(20):
        assert st.put(k, payload(k)) is True
    for k in range(20):
        np.testing.assert_array_equal(st.get(k), payload(k))
    st.delete(7)
    assert st.get(7) is None and st.peek(7) is None
    np.testing.assert_array_equal(st.get(8), payload(8))


def test_put_and_delete_are_idempotent(store):
    st, _ = store
    assert st.put(3, payload(3)) and st.put(3, payload(30))  # overwrite
    np.testing.assert_array_equal(st.get(3), payload(30))
    st.delete(3)
    st.delete(3)  # absent: no-op, no error
    st.delete(99)  # never put
    assert st.get(3) is None


def test_peek_reads_without_moving_a_hit_counter(store):
    st, hit_counters = store
    for k in range(10):
        st.put(k, payload(k))
    before = hit_counters()
    for k in range(10):
        np.testing.assert_array_equal(st.peek(k), payload(k))
    assert hit_counters() == before
    st.get(0)
    if before:  # stores that count hits count the real read
        assert hit_counters() != before


def test_export_is_ordered_and_exact_or_raises(store):
    st, _ = store
    for k in range(12):
        st.put(k, payload(k))
    keys = [9, 0, 5, 11]
    for got, k in zip(st.export(keys), keys):
        np.testing.assert_array_equal(got, payload(k))
    assert st.export([]) == []
    with pytest.raises((KeyError, RuntimeError)):
        st.export([0, 12345])


def test_load_replaces_the_contents(store):
    st, _ = store
    for k in range(6):
        st.put(k, payload(k))
    st.load({k: payload(k + 100) for k in (4, 5, 6, 7)})
    assert st.get(0) is None and st.peek(3) is None
    for got, k in zip(st.export([4, 5, 6, 7]), (4, 5, 6, 7)):
        np.testing.assert_array_equal(got, payload(k + 100))
    st.load({})
    assert st.get(4) is None


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_get_after_a_failed_put_is_none(n_shards):
    """A put the tier could not land reports False, leaves no location
    behind, and is counted; the key reads as absent even after the
    outage ends."""
    client = make_client("sim", n_shards)
    st = client.importance.store
    assert st.put(1, payload(1))
    for sid in range(n_shards):
        client.transport.fault_plans[sid] = OUTAGE
    assert st.put(2, payload(2)) is False
    assert client.dropped_admits == 1 and 2 not in st.loc
    assert st.get(2) is None and st.peek(2) is None
    assert st.put(1, payload(10)) is False  # failed overwrite keeps its home
    assert 1 in st.loc
    for sid in range(n_shards):
        client.transport.fault_plans[sid] = None
    client.clock.advance("compute", 1.0)  # let the breakers cool down
    assert st.get(2) is None
    np.testing.assert_array_equal(st.get(1), payload(1))


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_put_after_a_failed_put_of_the_same_key_keeps_its_payload(n_shards):
    """The failed put queues an orphan delete for its key; the put that
    follows supersedes it — flushed after that put landed, the delete
    would destroy the live payload."""
    client = make_client("sim", n_shards)
    st = client.importance.store
    for sid in range(n_shards):
        client.transport.fault_plans[sid] = OUTAGE
    assert st.put(5, payload(5)) is False
    assert sum(map(len, client._deletes.values())) == 1
    for sid in range(n_shards):
        client.transport.fault_plans[sid] = None
    client.clock.advance("compute", 1.0)  # let the breakers cool down
    assert st.put(5, payload(5)) is True
    np.testing.assert_array_equal(st.get(5), payload(5))
    assert client.degraded_lookups == 0
    assert client.verify_placement() == []
    assert not any(client._deletes.values())


# ----------------------------------------------------------------------
# identical by construction
# ----------------------------------------------------------------------
def test_sharded_client_runs_the_monoliths_policy_objects():
    client = make_client("sim", 2)
    assert isinstance(client, SemanticCache)
    assert type(client.importance) is ImportanceCache
    assert type(client.homophily) is HomophilyCache
    assert isinstance(client.importance.store, ShardStore)
    assert isinstance(client.homophily.store, ShardStore)
    assert client.importance.store.loc is client._loc["imp"]
    assert client.homophily.store.loc is client._loc["hom"]
    # The decisions are inherited, not retyped.
    for name in ("set_imp_ratio", "update_score", "_degraded_fetch",
                 "state_dict", "load_state_dict"):
        assert getattr(ShardedCacheClient, name) is getattr(SemanticCache, name)
