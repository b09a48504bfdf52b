"""Reporting tests: trace aggregation, artifact export, rendering.

Includes the observability acceptance test: a traced SpiderCache run's
JSONL aggregation reproduces the trainer's per-epoch EpochMetrics
(hit ratios and stage times) to float precision.
"""

import json

import pytest

from repro.baselines.registry import POLICIES
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.report import (
    EPOCHS_FILE,
    SUMMARY_FILE,
    TRACE_FILE,
    aggregate_trace,
    render_report,
    write_run_artifacts,
)
from repro.obs.trace import JsonlRecorder, read_jsonl
from repro.storage.backends import RemoteStore
from repro.train.trainer import Trainer, TrainerConfig
from tests.train import topologies
from tests.train.topologies import TOPOLOGIES


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced SpiderCache run: (result, events, observer, clock,
    run_dir)."""
    out = tmp_path_factory.mktemp("traced-run")
    ds = make_clustered_dataset(400, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    recorder = JsonlRecorder(out / TRACE_FILE)
    observer = Observer(recorder=recorder)
    policy = SpiderCachePolicy(cache_fraction=0.3, rng=3)
    trainer = Trainer(
        model, train, test, policy,
        TrainerConfig(epochs=3, batch_size=64),
        observer=observer, rng=4,
    )
    result = trainer.run()
    recorder.close()
    write_run_artifacts(
        result, out, metrics_snapshot=observer.snapshot(),
        meta={"seed": 0},
    )
    clock = trainer.workers[0].clock
    return result, read_jsonl(out / TRACE_FILE), observer, clock, out


def test_trace_aggregation_reproduces_epoch_metrics(traced_run):
    result, events, _, _, _ = traced_run
    aggs = aggregate_trace(events)
    assert len(aggs) == len(result.epochs)
    for a, em in zip(aggs, result.epochs):
        assert a.epoch == em.epoch
        assert a.hit_ratio == pytest.approx(em.hit_ratio, abs=1e-12)
        assert a.exact_hits / a.requests == pytest.approx(em.exact_hit_ratio, abs=1e-12)
        assert a.substitute_ratio == pytest.approx(em.substitute_ratio, abs=1e-12)
        assert a.data_load_s == pytest.approx(em.data_load_s, abs=1e-9)
        assert a.compute_s == pytest.approx(em.compute_s, abs=1e-9)
        assert a.is_visible_s == pytest.approx(em.is_visible_s, abs=1e-9)
        assert a.epoch_time_s == pytest.approx(em.epoch_time_s, abs=1e-9)


def test_trace_fetch_counts_match_metrics(traced_run):
    _, events, observer, clock, _ = traced_run
    fetches = [e for e in events if e["kind"] == "fetch"]
    snap = observer.snapshot()["counters"]
    assert len(fetches) == snap["cache.fetches"]
    remote = sum(1 for e in fetches if e["source"] == "remote")
    assert remote == snap["cache.fetch.remote"]
    # Every remote store fetch is attributed to a fetch or prefetch event:
    # the store is the only charger of its clock stage.
    traced_latency = sum(
        e.get("latency_s", 0.0) for e in events
        if e["kind"] in ("fetch", "prefetch") and e.get("source") != "importance"
        and e.get("source") != "homophily" and e.get("source") != "degraded"
        and e.get("source") != "skipped"
    )
    assert traced_latency == pytest.approx(
        clock.stage_seconds(RemoteStore.STAGE), abs=1e-9
    )


def test_artifacts_written(traced_run):
    _, _, _, _, out = traced_run
    assert (out / EPOCHS_FILE).is_file()
    assert (out / SUMMARY_FILE).is_file()
    rows = [json.loads(l) for l in (out / EPOCHS_FILE).read_text().splitlines()]
    assert len(rows) == 3
    assert rows[0]["policy"] == "spidercache"
    assert "hit_ratio" in rows[0]
    summary = json.loads((out / SUMMARY_FILE).read_text())
    assert summary["metrics"]["counters"]["cache.fetches"] > 0
    assert summary["meta"] == {"seed": 0}
    assert "final_accuracy" in summary["summary"]


def test_render_report_consistency_ok(traced_run):
    _, _, _, _, out = traced_run
    text = render_report(out)
    assert "policy=spidercache" in text
    assert "trace vs per-epoch metrics: OK" in text
    assert "stage totals:" in text
    assert "counters:" in text


@pytest.mark.parametrize("name", POLICIES)
def test_every_policys_trace_reconciles(name, tmp_path):
    """Every registry policy publishes one fetch row per request it
    serves, so a traced run's report reconciles whatever the policy, and
    a cache that counts its fetches counts every row."""
    ds = make_clustered_dataset(400, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    recorder = JsonlRecorder(tmp_path / TRACE_FILE)
    observer = Observer(recorder=recorder)
    trainer = Trainer(
        build_model("resnet18", train.dim, train.num_classes, rng=2),
        train, test, POLICIES[name](0.2, 3),
        TrainerConfig(epochs=2, batch_size=64), observer=observer, rng=4,
    )
    result = trainer.run()
    recorder.close()
    write_run_artifacts(result, tmp_path)
    assert "trace vs per-epoch metrics: OK over 2 epoch(s)" in render_report(tmp_path)
    rows = sum(e["kind"] == "fetch" for e in read_jsonl(tmp_path / TRACE_FILE))
    assert rows == len(train) * 2
    assert observer.snapshot()["counters"].get("cache.fetches", rows) == rows


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("name", POLICIES)
def test_every_policy_reconciles_on_every_topology(name, topology, tmp_path):
    """Every registry policy runs on every topology, the sharded one
    included, and its trace reconciles: the report prints ``OK``, over
    every stage on one replica and over the hit and substitute ratios on
    a multi-worker run (whose stage times are divided across workers)."""
    recorder = JsonlRecorder(tmp_path / TRACE_FILE)
    trainer = topologies.build(
        topology, topologies.dataset(),
        policy_cls=lambda cache_fraction, rng: POLICIES[name](cache_fraction, rng),
        observer=Observer(recorder=recorder),
    )
    result = trainer.run()
    recorder.close()
    write_run_artifacts(result, tmp_path)
    text = render_report(tmp_path)
    assert "MISMATCH" not in text
    line = "trace vs per-epoch metrics: OK over 2 epoch(s)"
    if len(trainer.workers) == 1:
        assert line + "\n" in text + "\n"
    else:
        assert line + " (hit and substitute ratios; stage times skipped" in text


def test_shards_table_shows_every_layer(tmp_path):
    """The final shard table has a column group per cache layer: an
    iCache run on the shard tier shows its L-section's occupancy and
    hits, which sum to what the layer itself counted."""
    from repro.cli import main

    out = tmp_path / "run"
    assert main([
        "train", "--policy", "icache", "--samples", "400", "--epochs", "2",
        "--world-size", "2", "--shared-cache", "--cache-shards", "2",
        "--trace-dir", str(out),
    ]) == 0
    text = render_report(out)
    table = text.split("shards (final state):\n")[1].splitlines()
    header = table[0].split()
    assert header[:7] == ["shard", "imp", "imp_hit", "imp_sub",
                          "lsec", "lsec_hit", "lsec_sub"]
    rows = [row.split() for row in table[1:3]]
    lsec = sum(int(row[4]) for row in rows)
    hits = sum(int(row[5]) + int(row[6]) for row in rows)
    assert lsec > 0 and hits > 0
    counters = json.loads((out / SUMMARY_FILE).read_text())["metrics"]["counters"]
    assert hits == counters["cache.fetch.l_section"]


def test_icache_l_section_serves_are_their_own_rows(tmp_path):
    """iCache's L-section serves — exact hits and random substitutes —
    are published under their own source and metrics name; the homophily
    rows and counter count none of them."""
    recorder = JsonlRecorder(tmp_path / TRACE_FILE)
    observer = Observer(recorder=recorder)
    trainer = topologies.build(
        "trainer", topologies.dataset(),
        policy_cls=lambda cache_fraction, rng: POLICIES["icache"](cache_fraction, rng),
        observer=observer, epochs=3,
    )
    result = trainer.run()
    recorder.close()
    write_run_artifacts(result, tmp_path, observer.snapshot())
    fetches = [e for e in read_jsonl(tmp_path / TRACE_FILE) if e["kind"] == "fetch"]
    sources = {e["source"] for e in fetches}
    assert "homophily" not in sources
    l_rows = [e for e in fetches if e["source"] == "l_section"]
    random = sum(e["served_id"] != e["requested_id"] for e in l_rows)
    assert random > 0 and len(l_rows) > random
    counters = observer.snapshot()["counters"]
    assert "cache.fetch.homophily" not in counters
    assert counters["cache.fetch.l_section"] == len(l_rows)
    text = render_report(tmp_path)
    assert (f"l-section serves: {len(l_rows) - random} exact, "
            f"{random} random substitutes") in text
    assert "trace vs per-epoch metrics: OK over 3 epoch(s)" in text


def test_render_report_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        render_report(tmp_path / "nope")


def test_aggregate_reads_data_load_inputs_from_run_start():
    events = [
        {"kind": "run_start", "epoch": -1, "io_workers": 4,
         "hit_latency_s": 1e-5},
        {"kind": "fetch", "epoch": 0, "requested_id": 1, "served_id": 1,
         "source": "remote", "latency_s": 8.0},
        {"kind": "fetch", "epoch": 0, "requested_id": 2, "served_id": 2,
         "source": "importance", "latency_s": 1e-5},
    ]
    (a,) = aggregate_trace(events)
    assert a.misses == 1 and a.exact_hits == 1
    assert a.data_load_s == pytest.approx(8.0 / 4 + 1e-5)


def test_aggregate_degraded_excluded_from_hit_ratio():
    events = [
        {"kind": "fetch", "epoch": 0, "requested_id": 1, "served_id": 9,
         "source": "degraded", "latency_s": 0.0},
        {"kind": "fetch", "epoch": 0, "requested_id": 2, "served_id": 2,
         "source": "remote", "latency_s": 0.01},
        {"kind": "fetch", "epoch": 0, "requested_id": 3, "served_id": None
         or 0, "source": "skipped", "latency_s": 0.0},
    ]
    (a,) = aggregate_trace(events)
    assert a.degraded_serves == 1
    assert a.requests == 2  # remote + skipped; degraded excluded
    assert a.hit_ratio == 0.0
    assert a.skipped == 1


def test_one_worker_sharded_run_reconciles(tmp_path):
    """One worker on the shard tier: its data-load time includes the RPC
    stage, which the trace holds as ``rpc_attempt`` / ``backoff`` spans,
    so every stage time reconciles."""
    from repro.cli import main

    out = tmp_path / "run"
    assert main([
        "train", "--policy", "spidercache", "--samples", "400", "--epochs",
        "2", "--world-size", "1", "--shared-cache", "--cache-shards", "2",
        "--trace-dir", str(out),
    ]) == 0
    text = render_report(out)
    assert "trace vs per-epoch metrics: OK over 2 epoch(s)\n" in text + "\n"


def test_checkpoint_resumed_run_reconciles(tmp_path):
    """A preempted ``ResilientTrainer`` replays the batches after its last
    checkpoint; the report drops the replayed journal at each ``restore``
    and reconciles every stage, while the event census counts every
    line."""
    from repro.resilience.preemption import PreemptionSchedule
    from repro.resilience.trainer import ResilientTrainer

    ds = make_clustered_dataset(160, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    recorder = JsonlRecorder(tmp_path / TRACE_FILE)
    trainer = ResilientTrainer(
        build_model("resnet18", train.dim, train.num_classes, rng=2),
        train, test, SpiderCachePolicy(cache_fraction=0.2, rng=3),
        TrainerConfig(epochs=3, batch_size=16),
        observer=Observer(recorder=recorder, span_seed=0),
        checkpoint_dir=tmp_path / "ckpts", checkpoint_every_batches=2,
        preemptions=PreemptionSchedule(at=[(1, 2)]),
    )
    result = trainer.run()
    recorder.close()
    write_run_artifacts(result, tmp_path)
    events = read_jsonl(tmp_path / TRACE_FILE)
    assert sum(e["kind"] == "restore" for e in events) == 1
    batches = sum(e["kind"] == "batch" for e in events)
    # The journal holds the one batch replayed after the restore.
    assert batches == sum(a.n_batches for a in aggregate_trace(events)) + 1
    text = render_report(tmp_path)
    assert f"batch={batches}" in text
    assert "trace vs per-epoch metrics: OK over 3 epoch(s)\n" in text + "\n"


def test_resilient_trainer_report_is_consistent_without_preemptions(tmp_path):
    """A traced ``ResilientTrainer`` goes through ``EpochRunner.run``: one
    ``run_start`` (the report reads ``io_workers`` / ``hit_latency_s`` from
    it) and one ``run`` span, so a clean run checks out like ``Trainer``'s."""
    from repro.resilience.trainer import ResilientTrainer

    ds = make_clustered_dataset(600, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    recorder = JsonlRecorder(tmp_path / TRACE_FILE)
    trainer = ResilientTrainer(
        build_model("resnet18", train.dim, train.num_classes, rng=2),
        train, test, SpiderCachePolicy(cache_fraction=0.3, rng=3),
        TrainerConfig(epochs=2, batch_size=64),
        observer=Observer(recorder=recorder, metrics=MetricsRegistry(), span_seed=5),
        rng=4, checkpoint_dir=tmp_path / "ckpts",
    )
    result = trainer.run()
    recorder.close()
    write_run_artifacts(result, tmp_path)
    events = read_jsonl(tmp_path / TRACE_FILE)
    assert sum(e["kind"] == "run_start" for e in events) == 1
    assert sum(e["kind"] == "span" and e["name"] == "run" for e in events) == 1
    assert "trace vs per-epoch metrics: OK" in render_report(tmp_path)


def test_rpc_attempt_line_equals_the_rpc_calls_counter(tmp_path):
    """The ``rpc transport:`` line counts attempts, not attempts plus the
    logical ``rpc`` spans that enclose them."""
    import re

    from repro.train.data_parallel import DataParallelTrainer

    ds = make_clustered_dataset(240, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    recorder = JsonlRecorder(tmp_path / TRACE_FILE)
    dp = DataParallelTrainer(
        model_factory=lambda: build_model("resnet18", train.dim,
                                          train.num_classes, rng=2),
        train_set=train,
        test_set=test,
        policy_factory=lambda rank: SpiderCachePolicy(cache_fraction=0.3, rng=3),
        world_size=2,
        config=TrainerConfig(epochs=2, batch_size=32, shared_cache=True,
                             cache_shards=2),
        observer=Observer(recorder=recorder, span_seed=5),
        rng=4,
    )
    result = dp.run()
    recorder.close()
    write_run_artifacts(result, tmp_path)
    calls = dp.workers[0].policy.cache.transport.calls
    assert calls > 0
    match = re.search(r"rpc transport: sim=(\d+) attempt\(s\)",
                      render_report(tmp_path))
    assert match and int(match.group(1)) == calls


def test_data_parallel_report_stage_columns_equal_epoch_metrics(tmp_path):
    """A traced K=2 shared run goes through the same step as ``Trainer``:
    one ``batch`` event per step, IS charged from the policy's cost — so the
    report's ``comp_s`` / ``is_s`` columns and the trace's batch events both
    equal the run's ``EpochMetrics`` (the forked loop emitted no batch event
    and charged no policy IS)."""
    from repro.train.data_parallel import DataParallelTrainer

    class SlowISPolicy(SpiderCachePolicy):
        is_ms_per_batch = 100.0  # 23 ms outlast resnet18's 77 ms overlap window

    ds = make_clustered_dataset(240, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    recorder = JsonlRecorder(tmp_path / TRACE_FILE)
    dp = DataParallelTrainer(
        model_factory=lambda: build_model("resnet18", train.dim,
                                          train.num_classes, rng=2),
        train_set=train,
        test_set=test,
        policy_factory=lambda rank: SlowISPolicy(cache_fraction=0.3, rng=3),
        world_size=2,
        config=TrainerConfig(epochs=2, batch_size=32, shared_cache=True),
        observer=Observer(recorder=recorder, metrics=MetricsRegistry()),
        rng=4,
    )
    result = dp.run()
    recorder.close()
    write_run_artifacts(result, tmp_path)

    rows = render_report(tmp_path).splitlines()[3:3 + len(result.epochs)]
    aggs = aggregate_trace(tmp_path / TRACE_FILE)
    assert len(aggs) == len(result.epochs) == len(rows)
    for row, a, em in zip(rows, aggs, result.epochs):
        cols = row.split()
        assert int(cols[0]) == em.epoch
        assert cols[6] == f"{em.compute_s:.3f}" != "0.000"
        assert cols[7] == f"{em.is_visible_s:.3f}" != "0.000"
        assert a.n_batches == 6  # ceil(90 per rank / 16 per rank and step)
        assert a.n_samples == len(train)
        assert a.compute_s == pytest.approx(em.compute_s, abs=1e-9)
        assert a.is_visible_s == pytest.approx(em.is_visible_s, abs=1e-9)
        assert a.hit_ratio == pytest.approx(em.hit_ratio, abs=1e-12)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_stage_totals_line_adds_up_on_every_topology(topology, tmp_path):
    """``stage totals:`` prints every term of the epoch-time identity —
    ``comm_s`` included where replicas all-reduce — so the printed stages
    sum to the printed ``epoch_time_s`` (to the three printed decimals)."""
    trainer = topologies.build(topology, topologies.dataset())
    result = trainer.run()
    write_run_artifacts(result, tmp_path)
    (line,) = [ln for ln in render_report(tmp_path).splitlines()
               if ln.startswith("stage totals: ")]
    terms = {k: float(v) for k, v in
             (term.split("=") for term in line.split(": ", 1)[1].split())}
    total = terms.pop("epoch_time_s")
    assert list(terms)[:4] == [
        "data_load_s", "compute_s", "is_visible_s", "preprocess_s"]
    assert ("comm_s" in terms) == (len(trainer.workers) > 1)
    assert sum(terms.values()) == pytest.approx(total, abs=0.0005 * 6)
    assert total == pytest.approx(result.total_time_s, abs=0.0005)
    if "comm_s" in terms:
        assert terms["comm_s"] == pytest.approx(
            sum(e.comm_s for e in result.epochs), abs=0.0005)
