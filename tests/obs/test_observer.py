"""Observer tests: null behaviour, latency attribution, component events."""

import numpy as np
import pytest

from repro.cache.base import FetchSource
from repro.core.elastic import ElasticCacheManager
from repro.core.semantic_cache import SemanticCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.trace import InMemoryRecorder
from repro.resilience.breaker import CircuitBreaker
from repro.storage.backends import RemoteStore
from repro.train.trainer import TrainerConfig


def _observer():
    rec = InMemoryRecorder()
    reg = MetricsRegistry()
    return Observer(recorder=rec, metrics=reg), rec, reg


def test_null_observer_inactive():
    assert NULL_OBSERVER.active is False
    assert NULL_OBSERVER.recorder is None


def test_observer_without_recorder_is_inactive_and_allocates_no_tracker():
    obs = Observer()
    assert obs.active is False
    assert obs.recorder is None and obs.spans is None


def test_every_event_an_active_observer_emits_carries_the_trace_stamp():
    """Flat events, per-request rows and span events alike, inside a span
    and outside one."""
    obs, rec, _ = _observer()
    obs.set_epoch(0)
    obs.on_breaker("closed", "open", 0.0)
    span = obs.span_start("batch", 0.0, slot=0)
    obs.on_fetch(1, 1, FetchSource.REMOTE)
    obs.on_admit(1, 0.5, admitted=False, evicted_key=None)
    obs.span_record("compute", 0.0, 0.1, slot=0)
    obs.span_end(span, 0.2)
    obs.on_epoch_metrics({"hit_ratio": 0.0})
    trace = obs.spans.trace_id
    assert len(rec.events) == 6
    assert all(e["trace"] == trace for e in rec.events)
    inside = [e for e in rec.events if e["kind"] in ("fetch", "importance_admit")]
    assert all(e["span"] == span.span_id for e in inside)
    assert "span" not in rec.events[0] and "span" not in rec.events[-1]


def test_components_default_to_null_observer():
    cache = SemanticCache(total_capacity=8)
    store = RemoteStore(np.zeros((4, 2)))
    assert cache._obs is NULL_OBSERVER
    assert store._obs is NULL_OBSERVER
    # An un-instrumented fetch works and records nothing anywhere.
    store.get(0)
    assert NULL_OBSERVER.recorder is None


def test_store_latency_consumed_by_fetch_event():
    obs, rec, _ = _observer()
    store = RemoteStore(np.zeros((4, 2)), item_nbytes=1024)
    store.attach_observer(obs)
    cache = SemanticCache(total_capacity=8)
    cache.attach_observer(obs)
    obs.set_epoch(0)

    out = cache.fetch(1, 1.0, store.get)
    assert out.source is FetchSource.REMOTE
    (ev,) = [e for e in rec.events if e["kind"] == "fetch"]
    assert ev["requested_id"] == 1
    assert ev["source"] == "remote"
    assert ev["latency_s"] > 0
    # Consumed: nothing pending for the next event.
    assert obs.take_store_latency() == 0.0
    counters = obs.snapshot()["counters"]
    assert counters["store.fetches"] == 1
    assert counters["cache.fetch.remote"] == 1


def test_cache_hit_uses_hit_latency():
    obs, rec, _ = _observer()
    obs.hit_latency_s = 1e-5
    cache = SemanticCache(total_capacity=8, imp_ratio=1.0)
    cache.attach_observer(obs)
    cache.importance.admit(3, 1.0, np.zeros(2))
    out = cache.fetch(3, 1.0, lambda i: np.zeros(2))
    assert out.source is FetchSource.IMPORTANCE
    (ev,) = [e for e in rec.events if e["kind"] == "fetch"]
    assert ev["source"] == "importance"
    assert ev["latency_s"] == pytest.approx(1e-5)


def test_importance_admission_events():
    obs, rec, _ = _observer()
    cache = SemanticCache(total_capacity=4, imp_ratio=1.0)
    cache.attach_observer(obs)
    imp = cache.importance
    for k in range(4):
        imp.admit(k, float(k + 1), np.zeros(2))
    imp.admit(9, 0.1, np.zeros(2))   # below min: rejected
    imp.admit(10, 9.0, np.zeros(2))  # evicts the min
    admits = [e for e in rec.events if e["kind"] == "importance_admit"]
    assert len(admits) == 6
    assert admits[4]["admitted"] is False
    assert admits[5]["admitted"] is True and admits[5]["evicted_key"] is not None
    counters = obs.snapshot()["counters"]
    assert counters["importance.admitted"] == 5
    assert counters["importance.rejected"] == 1
    assert counters["importance.evictions"] == 1


def test_degraded_serve_events():
    obs, rec, _ = _observer()
    cache = SemanticCache(total_capacity=10, imp_ratio=0.5)
    cache.attach_observer(obs)
    cache.update_homophily(3, np.full(4, 3.0), [30])
    out = cache.fetch(99, 1.0, lambda index: None)  # remote tier unreachable
    assert out.source is FetchSource.DEGRADED
    (ev,) = [e for e in rec.events if e["kind"] == "fetch"]
    assert ev["source"] == "degraded"
    assert obs.snapshot()["counters"]["cache.fetch.degraded"] == 1


def test_breaker_transition_events(monkeypatch):
    from repro.resilience import breaker

    monkeypatch.setattr(breaker, "FAILURE_THRESHOLD", 2)
    obs, rec, _ = _observer()
    br = CircuitBreaker(cooldown_s=1.0)
    br.attach_observer(obs)
    br.record_failure(0.0)
    br.record_failure(0.1)  # opens
    assert br.allow(2.0)    # half-open probe
    br.record_success(2.1)  # closes (close_threshold=1)
    kinds = [(e["old"], e["new"]) for e in [e for e in rec.events if e["kind"] == "breaker"]]
    assert kinds == [
        ("closed", "open"), ("open", "half_open"), ("half_open", "closed")
    ]
    counters = obs.snapshot()["counters"]
    assert counters["breaker.opens"] == 1
    assert counters["breaker.transitions"] == 3


def test_snapshot_reads_each_owner_once_and_only_non_zero_counts():
    obs, _, reg = _observer()
    store, other = RemoteStore(np.zeros((4, 2))), RemoteStore(np.zeros((4, 2)))
    for s in (store, store, other):  # re-attaching registers nothing new
        s.attach_observer(obs)
    CircuitBreaker().attach_observer(obs)  # registered, never transitions
    store.get(0)
    store.get(1)
    other.get(2)
    assert obs.snapshot()["counters"] == {
        "store.bytes_fetched": 3 * 3 * 1024, "store.fetches": 3,
    }
    assert reg.snapshot()["counters"] == {}
    # The shared null observer registers nothing.
    store.attach_observer(NULL_OBSERVER)
    assert NULL_OBSERVER.snapshot()["counters"] == {}


def test_no_hook_counts_what_an_owner_keeps():
    """After a traced sharded run every owner's count is exported, and
    the registry itself holds none of those names."""
    from repro.core.policy import SpiderCachePolicy
    from repro.data.synthetic import make_clustered_dataset, train_test_split
    from repro.nn.models import build_model
    from repro.train.data_parallel import DataParallelTrainer

    ds = make_clustered_dataset(240, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    obs, _, reg = _observer()
    dp = DataParallelTrainer(
        model_factory=lambda: build_model("resnet18", train.dim,
                                          train.num_classes, rng=2),
        train_set=train, test_set=test,
        policy_factory=lambda rank: SpiderCachePolicy(cache_fraction=0.3, rng=3),
        world_size=2,
        config=TrainerConfig(epochs=2, batch_size=32, shared_cache=True,
                             cache_shards=2),
        observer=obs, rng=4,
    )
    dp.run()
    worker = dp.workers[0]
    client = worker.policy.cache
    owners = [worker.policy, worker.store, client, client.transport,
              *client.breakers.values()]
    owned = {name for owner in owners for name in owner.counters()}
    live = reg.snapshot()["counters"]
    assert live and not owned & set(live)
    exported = obs.snapshot()["counters"]
    assert exported["cache.fetches"] == client.stats.requests
    assert exported["rpc.calls"] == client.transport.calls
    assert exported["store.fetches"] == worker.store.fetch_count


def test_elastic_decision_events():
    obs, rec, _ = _observer()
    mgr = ElasticCacheManager(r_start=0.9, r_end=0.3, total_epochs=10)
    mgr.attach_observer(obs)
    for epoch in range(3):
        mgr.step(epoch, accuracy=0.5 + 0.01 * epoch, score_std=0.5)
    evs = [e for e in rec.events if e["kind"] == "elastic"]
    assert [e["decision_epoch"] for e in evs] == [0, 1, 2]
    assert evs[-1]["imp_ratio"] == pytest.approx(mgr.history[-1].imp_ratio)


def test_events_stamped_with_epoch():
    obs, rec, _ = _observer()
    obs.set_epoch(4)
    obs.emit("fetch", requested_id=0)
    assert rec.events[0]["epoch"] == 4


def test_observation_does_not_perturb_training():
    """A traced run and an untraced run are bit-identical: observation is
    read-only and the null path costs nothing but an attribute check."""
    from repro.core.policy import SpiderCachePolicy
    from repro.data.synthetic import make_clustered_dataset, train_test_split
    from repro.nn.models import build_model
    from repro.train.trainer import Trainer, TrainerConfig

    def run(observer):
        ds = make_clustered_dataset(200, n_classes=4, dim=8, rng=0)
        train, test = train_test_split(ds, test_fraction=0.25, rng=1)
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(cache_fraction=0.25, rng=3)
        t = Trainer(model, train, test, policy,
                    TrainerConfig(epochs=2, batch_size=32),
                    observer=observer, rng=4)
        return t.run()

    plain = run(None)
    obs, rec, _ = _observer()
    traced = run(obs)
    assert len(rec.events) > 0
    for pe, te in zip(plain.epochs, traced.epochs):
        assert te.train_loss == pe.train_loss
        assert te.val_accuracy == pe.val_accuracy
        assert te.hit_ratio == pe.hit_ratio
        assert te.epoch_time_s == pe.epoch_time_s
