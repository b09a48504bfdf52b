"""Row blocks are lossless: what ``read_jsonl`` returns from a trace the
``JsonlRecorder`` wrote in blocks is, event for event and in order, the
flat stream the observer's calls stood for.

Three angles:

* the schema table pinned against one hand-written flat event per kind
  (the differential below expands through the same ``expand_row`` the
  reader uses, so the field names themselves need an outside oracle);
* a differential over real runs: a tee records the flat event of every
  ``emit`` / ``emit_row`` call at call time, next to the real sink — every
  trainer topology, a request stream straight at the shard tier, the
  same stream through a shard outage with breaker trips;
* a Hypothesis round trip over arbitrary interleavings of rows, stamps
  and cold events.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.client import ShardedCacheClient
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.trace import (
    ROW_SCHEMA,
    ROWS_KIND,
    SEGMENT_KIND,
    InMemoryRecorder,
    JsonlRecorder,
    TraceRecorder,
    expand_row,
    read_jsonl,
)
from repro.resilience.faults import FaultPlan, OutageWindow
from repro.storage.clock import SimClock
from tests.train import topologies
from tests.train.topologies import TOPOLOGIES


# ----------------------------------------------------------------------
# The schema table against hand-written flat events
# ----------------------------------------------------------------------

#: One row per kind (plus the optional-field variants) and the flat event
#: the pre-block writer produced for the same hook call.
EXAMPLES = [
    (
        ("fetch", 7, 9, "homophily", 2e-05),
        {"requested_id": 7, "served_id": 9, "source": "homophily",
         "latency_s": 2e-05},
    ),
    (
        ("prefetch", 3, True, 0.004),
        {"index": 3, "admitted": True, "latency_s": 0.004},
    ),
    (
        ("importance_admit", 5, 0.75, True, None),
        {"key": 5, "score": 0.75, "admitted": True, "evicted_key": None},
    ),
    (
        ("importance_admit", 5, 1.0, True, 11),
        {"key": 5, "score": 1.0, "admitted": True, "evicted_key": 11},
    ),
    (
        ("evict", "homophily", 4, "fifo"),
        {"layer": "homophily", "key": 4, "reason": "fifo"},
    ),
    (
        ("audit", "evict", 11, "importance", 0.25, 1.0, 5, "displaced"),
        {"action": "evict", "key": 11, "layer": "importance", "score": 0.25,
         "threshold": 1.0, "requested_id": 5, "reason": "displaced"},
    ),
    (
        ("audit", "drop", 5, "importance", 0.1, 0.25, None, None),
        {"action": "drop", "key": 5, "layer": "importance", "score": 0.1,
         "threshold": 0.25},
    ),
    (
        ("audit", "substitute", 2, "homophily", None, None, 8, None),
        {"action": "substitute", "key": 2, "layer": "homophily",
         "requested_id": 8},
    ),
]


@pytest.mark.parametrize("row,fields", EXAMPLES, ids=lambda v: str(v)[:40])
def test_expand_row_matches_the_flat_event(row, fields):
    stamped = expand_row(3, "t" * 16, "s" * 16, row)
    assert stamped == {
        "kind": row[0], "epoch": 3, "trace": "t" * 16, "span": "s" * 16,
        **fields,
    }
    # Key order is the flat writer's: kind, epoch, stamps, then fields.
    assert list(stamped) == ["kind", "epoch", "trace", "span", *fields]
    assert expand_row(3, "t" * 16, None, row) == {
        "kind": row[0], "epoch": 3, "trace": "t" * 16, **fields,
    }
    assert expand_row(-1, None, None, row) == {
        "kind": row[0], "epoch": -1, **fields,
    }


def test_every_schema_kind_has_an_example():
    assert {row[0] for row, _ in EXAMPLES} == set(ROW_SCHEMA)


def test_observer_hooks_emit_schema_rows(tmp_path):
    """Every per-request hook, through the block writer and back, against
    the same hooks on an in-memory sink (flat and immediate)."""
    def drive(obs):
        obs.set_epoch(2)
        obs.on_store_fetch(0.004)
        obs.on_fetch(1, 1, "remote")
        obs.on_admit(1, 0.5, True, None)
        obs.on_admit(2, 0.7, True, 1)
        obs.on_audit("evict", 1, "importance", score=0.5, threshold=0.7,
                     requested_id=2, reason="displaced")
        obs.on_audit("substitute", 4, "homophily", requested_id=9)
        obs.on_evict("homophily", 4, "fifo")
        obs.on_store_fetch(0.002)
        obs.on_prefetch(3, False)
        obs.close()

    mem = InMemoryRecorder()
    drive(Observer(mem, MetricsRegistry(), span_seed=1))
    path = tmp_path / "trace.jsonl"
    drive(Observer(JsonlRecorder(path), MetricsRegistry(), span_seed=1))
    assert _payload(read_jsonl(path)) == mem.events
    assert [e["kind"] for e in mem.events] == [
        "fetch", "importance_admit", "importance_admit", "audit", "audit",
        "evict", "prefetch",
    ]
    assert "reason" not in mem.events[4] and "score" not in mem.events[4]
    # All seven rows rode one block line.
    assert len(path.read_text().splitlines()) == 2


# ----------------------------------------------------------------------
# Differential: blocks on disk == flat events at call time
# ----------------------------------------------------------------------

class TeeRecorder(TraceRecorder):
    """Forwards to a real :class:`JsonlRecorder` and keeps, beside it,
    the flat event of every call as it is made."""

    def __init__(self, path):
        self.sink = JsonlRecorder(path)
        self.flat = []

    def emit(self, event):
        self.flat.append(dict(event))
        self.sink.emit(event)

    def emit_row(self, epoch, trace, span, row):
        self.flat.append(expand_row(epoch, trace, span, row))
        self.sink.emit_row(epoch, trace, span, row)

    def close(self):
        self.sink.close()


def _payload(events):
    """A loaded trace without the segment headers the sink adds itself."""
    return [e for e in events if e["kind"] != SEGMENT_KIND]


def _assert_blocks_equal_flat(tee):
    tee.close()
    loaded = _payload(read_jsonl(tee.sink.path))
    flat = tee.flat
    assert ROWS_KIND not in {e["kind"] for e in loaded}
    # The file holds the call order — which implies the multiset, and the
    # presence or absence of ``trace`` / ``span`` on every single event.
    assert loaded == flat
    assert [list(e) for e in loaded] == [list(e) for e in flat]
    # The run did go through blocks: fewer lines than events (how many
    # fewer depends on how many rows each span covers).
    assert any(e["kind"] in ROW_SCHEMA for e in flat)
    assert len(tee.sink.path.read_text().splitlines()) < len(flat)
    return loaded


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_blocks_equal_flat_on_every_topology(topology, tmp_path):
    tee = TeeRecorder(tmp_path / "trace.jsonl")
    trainer = topologies.build(topology, topologies.dataset())
    trainer.observer = Observer(tee, MetricsRegistry(), span_seed=5)
    trainer.run()
    loaded = _assert_blocks_equal_flat(tee)
    kinds = {e["kind"] for e in loaded}
    assert {"fetch", "importance_admit", "audit", "batch", "span"} <= kinds
    # Every per-request event of a training run sits under a span.
    assert all("span" in e for e in loaded if e["kind"] == "fetch")


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "outage"])
def test_blocks_equal_flat_on_a_load_replay(faulted, tmp_path):
    """A seeded request stream straight at a sim ``ShardedCacheClient``,
    in loader-sized batches (whose opening frames carry the queued
    writes): rows interleave with RPC spans and, under an outage on
    shard 0, with breaker trips."""
    tee = TeeRecorder(tmp_path / "trace.jsonl")
    clock = SimClock()
    client = ShardedCacheClient(128, imp_ratio=0.8, n_shards=2, clock=clock)
    if faulted:
        client.transport.fault_plans[0] = FaultPlan([OutageWindow(start_s=0.1, end_s=3.0)])
    client.attach_observer(Observer(tee, MetricsRegistry(), span_seed=7))
    n_keys = 300

    def remote_get(key):
        clock.advance("miss", 1e-3)
        return np.full(16, float(key), dtype=np.float32)

    rng = np.random.default_rng(7)
    batch, scores = [], []
    for key in (rng.zipf(1.1, size=1500) % n_keys).tolist():
        if rng.random() < 0.05:
            neighbors = [(key + j) % n_keys for j in (1, 2, 3)]
            client.update_homophily(key, remote_get(key), neighbors)
        else:
            batch.append(key)
            scores.append(float(rng.random()))
        if len(batch) == 16:
            client.fetch_many(batch, scores, remote_get)
            batch, scores = [], []
    client.close()
    loaded = _assert_blocks_equal_flat(tee)
    opens = [e for e in loaded if e["kind"] == "breaker" and e["new"] == "open"]
    assert bool(opens) == faulted


# ----------------------------------------------------------------------
# Hypothesis: any interleaving of rows, stamps and cold events
# ----------------------------------------------------------------------

_ints = st.integers(min_value=-(2 ** 53), max_value=2 ** 53)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_words = st.sampled_from(["importance", "homophily", "remote", "fifo", "é"])
_opt = st.none() | _floats


def _row():
    return st.one_of(
        st.tuples(st.just("fetch"), _ints, _ints, _words, _floats),
        st.tuples(st.just("prefetch"), _ints, st.booleans(), _floats),
        st.tuples(st.just("importance_admit"), _ints, _floats, st.booleans(),
                  st.none() | _ints),
        st.tuples(st.just("evict"), _words, _ints, _words),
        st.tuples(st.just("audit"), _words, _ints, _words, _opt, _opt,
                  st.none() | _ints, st.none() | _words),
    )


_stamps = st.tuples(
    st.integers(-1, 3),
    st.sampled_from([(None, None), ("t" * 16, None), ("t" * 16, "a" * 16),
                     ("t" * 16, "b" * 16)]),
).map(lambda s: (s[0], *s[1]))
_cold = st.fixed_dictionaries(
    {"kind": st.sampled_from(["batch", "span", "breaker"]), "epoch": _ints},
    optional={"slot": _ints, "where": _words},
)
_calls = st.lists(st.tuples(_stamps, _row()) | _cold, max_size=40)


@settings(max_examples=60, deadline=None)
@given(calls=_calls)
def test_round_trip_any_interleaving(calls, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "trace.jsonl"
    expected = []
    with JsonlRecorder(path) as rec:
        for call in calls:
            if isinstance(call, dict):
                rec.emit(call)
                expected.append(call)
            else:
                stamp, row = call
                rec.emit_row(*stamp, row)
                expected.append(expand_row(*stamp, row))
    loaded = _payload(read_jsonl(path)) if calls else []
    assert loaded == expected
    for got, want in zip(loaded, expected):
        # == treats 1 and 1.0 and True alike; the types must survive too
        # (ints stay ints, ``evicted_key: null`` stays, absent stays absent).
        assert list(got) == list(want)
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
