"""``fetch_many`` is the per-request loop, only cheaper.

The batch entry decides nothing: ``SemanticCache.fetch_many`` *is*
``[fetch(i) for i in ids]`` and the sharded client only reads ahead the
payloads those fetches would read anyway. So a fault-free run through
the batch entry must be indistinguishable from the per-request run —
served stream, ``state_dict`` (heap tiebreaks and every ``CacheStats``
included), per-shard hit counters, shard contents — for the monolith and
for any shard count. Hypothesis drives random streams (no RPC count is
asserted there: a payload read ahead and then evicted in-batch is a
wasted read); the directed cases pin the situations the read-ahead buffer
could get wrong (an in-batch eviction, repeats, a shared cover, a re-put
of a buffered key). Fault behaviour is in ``test_chaos.py``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantic_cache import SemanticCache
from repro.dist.client import ShardedCacheClient
from repro.obs.observer import Observer
from repro.obs.trace import InMemoryRecorder
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency

pytestmark = [pytest.mark.dist, pytest.mark.usefixtures("no_jitter")]

FAST = ConstantLatency(base_s=1e-4, bandwidth_bps=1e15)
TOTAL = 8
HIT_COUNTERS = ("imp_len", "hom_len", "imp_hits", "hom_hits",
                "hom_substitute_hits", "dropped_admits")


def payload(i):
    return np.full(4, float(i), dtype=np.float32)


def make_cache(n_shards, total=TOTAL, imp_ratio=0.8):
    """The monolith for ``n_shards == 0``, else a sim-transport client."""
    if n_shards == 0:
        return SemanticCache(total, imp_ratio=imp_ratio)
    cli = ShardedCacheClient(
        total, imp_ratio=imp_ratio, n_shards=n_shards, clock=SimClock()
    )
    cli.transport.latency = FAST
    return cli


_idx = st.integers(0, 15)
_score = st.floats(0.1, 100.0, allow_nan=False)
_op = st.one_of(
    st.tuples(st.just("batch"),
              st.lists(st.tuples(_idx, _score), min_size=1, max_size=12)),
    st.tuples(st.just("hom"), _idx, st.lists(_idx, max_size=4)),
    st.tuples(st.just("score"), _idx, _score),
    st.tuples(st.just("ratio"), st.floats(0.1, 0.9, allow_nan=False)),
)
_workload = st.lists(_op, min_size=5, max_size=60)


def versioned_remote():
    """A remote tier whose every read returns a new version of the
    sample (``id + calls / 1024``), so a stale cached copy shows."""
    calls = [0]

    def remote(i):
        calls[0] += 1
        return payload(i) + np.float32(calls[0] / 1024.0)

    return remote


def apply_op(cache, op, batched, remote):
    """Run one op; a ``batch`` goes through ``fetch_many`` or the
    per-request loop. Returns a comparable outcome."""
    kind = op[0]
    if kind == "batch":
        ids = [i for i, _ in op[1]]
        scores = [s for _, s in op[1]]
        if batched:
            outs = cache.fetch_many(ids, scores, remote)
        else:
            outs = [cache.fetch(i, s, remote) for i, s in zip(ids, scores)]
        for o in outs:  # every request gets the bytes of what served it
            assert int(o.payload[0]) == o.served_id
        return [(o.requested_id, o.served_id, o.source.value,
                 o.payload.tobytes()) for o in outs]
    if kind == "hom":
        # Node keys overlap the request range so nodes get requested too.
        return cache.update_homophily(op[1], payload(op[1]), op[2])
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


def hit_counters(client):
    return [[s[c] for c in HIT_COUNTERS] for s in client.shard_snapshots()]


def assert_quiescent(client):
    """What must hold whenever no ``fetch_many`` call is open."""
    assert not client._batch_open
    assert not any(client._deletes.values())
    for store in (client.importance.store, client.homophily.store):
        assert not store.ahead and not store.unread
    assert client.dropped_admits == 0 and client.degraded_lookups == 0
    assert client.verify_placement() == []
    for sid, server in client.servers.items():  # no orphan, none lost
        for layer, loc in client._loc.items():
            assert set(server.keys(layer)) == \
                {k for k, s in loc.items() if s == sid}


@pytest.mark.parametrize("n_shards", [0, 1, 2, 4])
@given(ops=_workload)
@settings(max_examples=25, deadline=None)
def test_batch_entry_equals_the_per_request_loop(n_shards, ops):
    loop, batch = make_cache(n_shards), make_cache(n_shards)
    loop_remote, batch_remote = versioned_remote(), versioned_remote()
    for op in ops:
        assert apply_op(loop, op, False, loop_remote) == \
            apply_op(batch, op, True, batch_remote)
    deep_equal(loop.state_dict(), batch.state_dict())
    if n_shards:
        assert hit_counters(loop) == hit_counters(batch)
        assert_quiescent(batch)


# ----------------------------------------------------------------------
# directed: what the read-ahead buffer could get wrong
# ----------------------------------------------------------------------
def traced_client(n_shards, **kw):
    client = make_cache(n_shards, **kw)
    recorder = InMemoryRecorder()
    client.attach_observer(Observer(recorder, span_seed=1))
    return client, recorder


def spans(recorder, name):
    return [e for e in recorder.events
            if e.get("kind") == "span" and e.get("name") == name]


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_in_batch_eviction_makes_the_later_request_a_miss(n_shards):
    """0 and 1 are resident; the miss on 2 evicts 0 before 0's own
    request is served. That request is a remote miss exactly as in the
    loop — the payload read ahead for it is dropped unread."""
    client, recorder = traced_client(n_shards, total=2, imp_ratio=1.0)
    client.fetch_many([0, 1], [1.0, 5.0], payload)
    outs = client.fetch_many([2, 0], [10.0, 20.0], payload)
    assert [(o.served_id, o.source.value) for o in outs] == \
        [(2, "remote"), (0, "remote")]
    assert sorted(client.importance._items) == [0, 2]  # 1 went for 0
    last = spans(recorder, "fetch_batch")[-1]
    assert (last["n"], last["prefetched"], last["unused"]) == (2, 1, 1)
    assert_quiescent(client)


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_repeats_and_a_shared_cover_cost_one_read_each(n_shards):
    client, _ = traced_client(n_shards)
    client.fetch_many([7], [1.0], payload)
    client.update_homophily(30, payload(30), [31, 32, 33])
    before = client.transport.calls
    outs = client.fetch_many([7, 7, 31, 32, 33, 30, 7], [1.0] * 7, payload)
    assert [o.served_id for o in outs] == [7, 7, 30, 30, 30, 30, 7]
    # Two keys, hence at most two frames (one when they share a shard).
    frames = len({client._loc["imp"][7], client._loc["hom"][30]})
    assert client.transport.calls - before == frames
    totals = np.sum(hit_counters(client), axis=0)
    assert list(totals[2:5]) == [3, 1, 3]  # imp / hom exact / hom subst
    assert_quiescent(client)


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_a_key_re_put_while_buffered_is_never_served_stale(n_shards):
    """0 is read ahead, evicted by the miss on 2, fetched again (the
    remote tier now has a newer version) and re-admitted: the third
    request must get the version just put, not the buffered one."""
    version = [0.0]

    def remote(i):
        return payload(i) + version[0]

    client = make_cache(n_shards, total=2, imp_ratio=1.0)
    client.fetch_many([0, 1], [1.0, 5.0], remote)
    version[0] = 0.5
    outs = client.fetch_many([2, 0, 0], [10.0, 20.0, 20.0], remote)
    assert [o.source.value for o in outs] == \
        ["remote", "remote", "importance"]
    np.testing.assert_array_equal(outs[2].payload, payload(0) + 0.5)
    np.testing.assert_array_equal(client.importance.store.peek(0),
                                  payload(0) + 0.5)
    assert_quiescent(client)


def test_put_and_delete_drop_the_buffered_entry():
    store = make_cache(2).importance.store
    store.put(1, payload(1))
    store.put(2, payload(2))
    store.ahead.update({1: payload(1), 2: payload(2)})  # as read ahead
    store.put(1, payload(10))
    store.delete(2)
    assert not store.ahead
    np.testing.assert_array_equal(store.get(1), payload(10))


def test_fetch_batch_span_parents_the_frames_and_the_requests():
    client, recorder = traced_client(2, total=24)
    client.fetch_many(list(range(12)), [1.0] * 12, payload)
    recorder.events.clear()
    client.fetch_many(list(range(12)), [1.0] * 12, payload)
    (batch,) = spans(recorder, "fetch_batch")
    assert (batch["n"], batch["frames"], batch["prefetched"],
            batch["unused"]) == (12, 2, 12, 0)
    rpcs = spans(recorder, "rpc")
    assert [s["method"] for s in rpcs] == ["get_many", "get_many"]
    children = rpcs + spans(recorder, "fetch")
    assert len(children) == 14
    assert {s["parent"] for s in children} == {batch["id"]}


def test_victim_deletes_ride_the_next_frame_to_their_shard():
    """One shard, a full cache, a batch of misses: each admit's victim
    delete leaves with the next put instead of costing a round trip."""
    client = make_cache(1, total=4, imp_ratio=1.0)
    client.fetch_many([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0], payload)
    before = client.transport.calls
    client.fetch_many([10, 11, 12], [10.0, 11.0, 12.0], payload)
    # 3 puts (two carrying the previous victim) + 1 closing bulk_delete;
    # the per-request path takes 3 puts + 3 deletes.
    assert client.transport.calls - before == 4
    assert sorted(client.importance._items) == [3, 10, 11, 12]
    assert_quiescent(client)


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_a_victim_evicted_outside_a_batch_costs_one_bulk_delete(n_shards):
    """No fetch_many call is open, so nothing would carry the victim's
    delete: it is flushed at once, as one ``bulk_delete`` after the put
    that evicted it."""
    client, recorder = traced_client(n_shards, imp_ratio=0.5)
    for node in range(4):  # fill the 4-slot homophily layer
        assert client.update_homophily(100 + node, payload(100 + node), [node])
    recorder.events.clear()
    before = client.transport.calls
    assert client.update_homophily(200, payload(200), [5])
    assert client.transport.calls - before == 2
    assert [s["method"] for s in spans(recorder, "rpc_attempt")] == \
        ["put", "bulk_delete"]
    assert len(client.homophily) == 4
    assert_quiescent(client)
