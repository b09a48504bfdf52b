"""Command-line interface: run reproduction experiments without writing code.

Usage::

    python -m repro info
    python -m repro train --policy spidercache --preset cifar10-like \\
        --epochs 10 --cache-fraction 0.2
    python -m repro compare --policies spidercache shade baseline \\
        --epochs 8
    python -m repro trace --policy spidercache --epochs 6 --capacity 0.2
    python -m repro train --policy spidercache --trace-dir runs/demo
    python -m repro report runs/demo
    python -m repro load --requests 100000 --arrivals bursty \\
        --trace-dir runs/load-demo

``train`` runs one policy and prints per-epoch metrics (with
``--trace-dir`` it also records a structured event trace and exports the
run artifacts); ``compare`` runs several policies on the identical
dataset/model and prints the Fig.-1 triangle (hit ratio / accuracy /
time); ``trace`` records the policy's access trace and reports LRU /
MinIO / Belady-OPT hit ratios on it; ``report`` renders the tables for
an exported run directory; ``load`` replays a seeded synthetic request
trace against the sharded cache tier, with windowed tail-latency / SLO
stats and an optional autoscaler growing and shrinking the ring live.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.baselines import POLICIES
from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache
from repro.cache.trace import AccessTrace, belady_hit_ratio, replay
from repro.data.registry import DATASET_PRESETS, make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import MODEL_ZOO, build_model
from repro.train.trainer import Trainer, TrainerConfig

__all__ = ["main", "POLICIES"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SpiderCache reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list presets, models, and policies")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", default="cifar10-like",
                       choices=sorted(DATASET_PRESETS))
        p.add_argument("--model", default="resnet18", choices=sorted(MODEL_ZOO))
        p.add_argument("--samples", type=int, default=1200)
        p.add_argument("--epochs", type=int, default=10)
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--cache-fraction", type=float, default=0.2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--prefetch-workers", type=int, default=0,
            help="prefetching loader threads (0 = serial loader); results "
                 "are bit-identical, only data-load time overlaps",
        )

    train_p = sub.add_parser("train", help="run one policy")
    train_p.add_argument("--policy", default="spidercache",
                         choices=sorted(POLICIES))
    train_p.add_argument(
        "--trace-dir", default=None,
        help="record a structured trace and export run artifacts "
             "(trace.jsonl, epochs.jsonl, summary.json) to this directory",
    )
    train_p.add_argument(
        "--world-size", type=int, default=1,
        help="data-parallel worker count (>1 uses DataParallelTrainer)",
    )
    train_p.add_argument(
        "--shared-cache", action="store_true",
        help="multi-worker runs share ONE logical cache instead of "
             "per-worker caches",
    )
    train_p.add_argument(
        "--cache-shards", type=int, default=0,
        help="partition the shared cache across this many shard servers "
             "behind simulated RPC (requires --shared-cache)",
    )
    train_p.add_argument(
        "--resize-shards-at", default=None, metavar="EPOCH:COUNT",
        help="live-resize the shard ring to COUNT shards at the start of "
             "EPOCH, migrating cached keys over the RPC channel "
             "(requires --cache-shards)",
    )
    train_p.add_argument(
        "--transport", choices=("sim", "real"), default="sim",
        help="execution mode: 'sim' (deterministic — simulated RPC tier and "
             "seeded-scheduler prefetching; default) or 'real' (wall-clock — "
             "shard servers in worker processes, prefetching on real "
             "threads; timings are measured, not modelled)",
    )
    train_p.add_argument(
        "--rpc-deadline-ms", type=float, default=None,
        help="per-call deadline for cache-protocol RPCs (sharded service); "
             "default 10 with --transport sim, 1000 with --transport real "
             "(real IPC has genuine latency jitter)",
    )
    train_p.add_argument(
        "--rpc-retry-budget", type=int, default=3,
        help="total attempts per cache-protocol request, first included "
             "(1 disables retries)",
    )
    add_common(train_p)

    report_p = sub.add_parser(
        "report", help="render the report for an exported run directory"
    )
    report_p.add_argument(
        "run_dir", help="directory written by `repro train --trace-dir`"
    )

    metrics_p = sub.add_parser(
        "metrics",
        help="export a run directory's metrics snapshot as Prometheus "
             "text-format exposition",
    )
    metrics_p.add_argument(
        "run_dir",
        help="directory written by `repro train --trace-dir` or "
             "`repro load --trace-dir`",
    )
    metrics_p.add_argument(
        "--prefix", default="repro_",
        help="metric-name prefix (default: repro_)",
    )

    cmp_p = sub.add_parser("compare", help="run several policies")
    cmp_p.add_argument("--policies", nargs="+", default=
                       ["spidercache", "shade", "icache", "coordl", "baseline"],
                       choices=sorted(POLICIES))
    add_common(cmp_p)

    trace_p = sub.add_parser("trace", help="record a trace, report OPT bound")
    trace_p.add_argument("--policy", default="spidercache",
                         choices=sorted(POLICIES))
    trace_p.add_argument("--capacity", type=float, default=0.2,
                         help="replay-cache capacity as a dataset fraction")
    add_common(trace_p)

    load_p = sub.add_parser(
        "load",
        help="replay a synthetic request trace against the sharded tier "
             "with tail-latency/SLO reporting and optional autoscaling",
    )
    load_p.add_argument("--requests", type=int, default=100000,
                        help="trace length in requests")
    load_p.add_argument("--keys", type=int, default=2000,
                        help="keyspace size (sample ids)")
    load_p.add_argument("--zipf-skew", type=float, default=1.1,
                        help="zipfian popularity exponent (0 = uniform)")
    load_p.add_argument("--put-fraction", type=float, default=0.05,
                        help="fraction of requests that are homophily PUTs")
    load_p.add_argument(
        "--arrivals", default="bursty",
        choices=["constant", "bursty", "diurnal", "bursty-diurnal"],
        help="arrival-process shape",
    )
    load_p.add_argument("--base-rate", type=float, default=1200.0,
                        help="baseline arrival rate (req/s; bursty off-rate)")
    load_p.add_argument("--burst-rate", type=float, default=7000.0,
                        help="bursty on-phase arrival rate (req/s)")
    load_p.add_argument("--mean-on-s", type=float, default=1.5,
                        help="mean burst duration (s)")
    load_p.add_argument("--mean-off-s", type=float, default=3.0,
                        help="mean quiet-phase duration (s)")
    load_p.add_argument("--diurnal-amplitude", type=float, default=0.6,
                        help="diurnal modulation amplitude in [0, 1)")
    load_p.add_argument("--diurnal-period-s", type=float, default=30.0,
                        help="diurnal modulation period (s)")
    load_p.add_argument("--capacity", type=int, default=512,
                        help="total cache capacity across shards (keys)")
    load_p.add_argument("--imp-ratio", type=float, default=0.8,
                        help="importance-tier fraction of capacity")
    load_p.add_argument("--shards", type=int, default=2,
                        help="initial shard count")
    load_p.add_argument("--window", type=int, default=1000,
                        help="requests per stats/autoscaler window")
    load_p.add_argument("--slo-ms", type=float, default=20.0,
                        help="SLO latency target (ms)")
    load_p.add_argument("--slo-goal", type=float, default=0.99,
                        help="SLO attainment goal in (0, 1]")
    load_p.add_argument("--service-rate", type=float, default=2000.0,
                        help="per-shard service capacity (req/s) for the "
                             "congestion model")
    load_p.add_argument("--miss-ms", type=float, default=1.0,
                        help="backing-store fetch latency on a miss (ms)")
    load_p.add_argument("--no-autoscale", action="store_true",
                        help="replay at the fixed initial shard count")
    load_p.add_argument("--min-shards", type=int, default=1)
    load_p.add_argument("--max-shards", type=int, default=8)
    load_p.add_argument("--p99-high-ms", type=float, default=8.0,
                        help="grow when windowed p99 exceeds this (ms)")
    load_p.add_argument("--p99-low-ms", type=float, default=3.0,
                        help="shrink only when windowed p99 is under this (ms)")
    load_p.add_argument("--util-high", type=float, default=0.85,
                        help="grow when utilization exceeds this")
    load_p.add_argument("--util-low", type=float, default=0.30,
                        help="shrink only when utilization is under this")
    load_p.add_argument("--breach-windows", type=int, default=2,
                        help="consecutive breach windows before acting")
    load_p.add_argument("--cooldown-windows", type=int, default=3,
                        help="windows to sleep after any scaling decision")
    load_p.add_argument("--growth-factor", type=float, default=2.0,
                        help="multiplicative grow/shrink step (> 1)")
    load_p.add_argument(
        "--transport", choices=("sim", "real"), default="sim",
        help="'sim' (default): simulated clock + congestion model, paced "
             "open-loop from the trace timeline; 'real': shard servers in "
             "worker processes, driven closed-loop at wall-clock speed "
             "(measured latencies, congestion model bypassed)",
    )
    load_p.add_argument("--seed", type=int, default=0)
    load_p.add_argument(
        "--trace-dir", default=None,
        help="write load.json (+ structured trace.jsonl) here; view with "
             "`repro report <dir>`",
    )

    faults_p = sub.add_parser(
        "faults", help="sweep fault scenarios (outage/brownout/preemption)"
    )
    faults_p.add_argument("--policy", default="spidercache",
                          choices=sorted(POLICIES))
    faults_p.add_argument(
        "--scenarios", nargs="+", default=None,
        help="scenario names to run (default: all built-in scenarios)",
    )
    faults_p.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for checkpoint archives (default: a temp dir)",
    )
    faults_p.add_argument(
        "--checkpoint-every", type=int, default=10,
        help="auto-checkpoint cadence in batches",
    )
    add_common(faults_p)
    return parser


def _make_run(args, policy_name: str, observer=None):
    data = make_dataset(args.preset, rng=args.seed, n_samples=args.samples)
    train, test = train_test_split(data, test_fraction=0.25, rng=args.seed + 1)
    model = build_model(args.model, train.dim, train.num_classes,
                        rng=args.seed + 2)
    policy = POLICIES[policy_name](args.cache_fraction, args.seed + 3)
    trainer = Trainer(
        model, train, test, policy,
        TrainerConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            prefetch_workers=getattr(args, "prefetch_workers", 0),
            clock_mode=getattr(args, "transport", "sim"),
        ),
        observer=observer,
    )
    return trainer, policy, train


def _cmd_info(args) -> int:
    print("dataset presets:")
    for name, p in DATASET_PRESETS.items():
        print(f"  {name}: n={p['n_samples']}, classes={p['n_classes']}, "
              f"dim={p['dim']}, item={p['item_nbytes'] // 1024}KB")
    print("models:")
    for name, spec in MODEL_ZOO.items():
        print(f"  {name}: embedding={spec.embedding_dim}, "
              f"stage1={spec.stage1_ms}ms stage2={spec.stage2_ms}ms "
              f"IS={spec.is_ms}ms")
    print("policies:")
    for name in sorted(POLICIES):
        print(f"  {name}")
    return 0


def _make_dp_run(args, policy_name: str, observer=None):
    """Build a DataParallelTrainer for ``--world-size > 1`` (or any
    shard-tier flag) train invocations."""
    from repro.train.data_parallel import DataParallelTrainer

    data = make_dataset(args.preset, rng=args.seed, n_samples=args.samples)
    train, test = train_test_split(data, test_fraction=0.25, rng=args.seed + 1)

    def model_factory():
        # Fresh rng per call: every replica starts from identical weights.
        return build_model(args.model, train.dim, train.num_classes,
                           rng=args.seed + 2)

    def policy_factory(rank: int):
        seed = args.seed + 3 if args.shared_cache else args.seed + 3 + rank
        return POLICIES[policy_name](args.cache_fraction, seed)

    return DataParallelTrainer(
        model_factory, train, test, policy_factory,
        world_size=args.world_size,
        config=TrainerConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            prefetch_workers=getattr(args, "prefetch_workers", 0),
            clock_mode=args.transport,
            shared_cache=args.shared_cache,
            cache_shards=args.cache_shards,
            rpc_deadline_s=args.rpc_deadline_ms / 1e3,
            rpc_retry_budget=args.rpc_retry_budget,
            resize_shards_at=_parse_resize_at(args.resize_shards_at),
        ),
        observer=observer,
        rng=args.seed + 4,
    )


def _parse_resize_at(spec):
    """``EPOCH:COUNT`` -> (epoch, count), or None."""
    if spec is None:
        return None
    try:
        epoch_s, count_s = str(spec).split(":", 1)
        epoch, count = int(epoch_s), int(count_s)
    except ValueError:
        print(f"--resize-shards-at expects EPOCH:COUNT (got {spec!r})",
              file=sys.stderr)
        raise SystemExit(2)
    if epoch < 0 or count < 1:
        print("--resize-shards-at needs EPOCH >= 0 and COUNT >= 1",
              file=sys.stderr)
        raise SystemExit(2)
    return epoch, count


def _reject(exc: ValueError) -> int:
    """A configuration the constructors refused: message on stderr, exit 2."""
    print(exc, file=sys.stderr)
    return 2


def _cmd_train(args) -> int:
    if args.shared_cache and args.world_size < 2:
        print("--shared-cache requires --world-size >= 2", file=sys.stderr)
        return 2
    if args.rpc_deadline_ms is None:
        # Real IPC needs a far looser budget than the simulated channel.
        args.rpc_deadline_ms = 1000.0 if args.transport == "real" else 10.0
    if args.rpc_deadline_ms <= 0:
        print("--rpc-deadline-ms must be positive", file=sys.stderr)
        return 2
    if args.rpc_retry_budget < 1:
        print("--rpc-retry-budget must be >= 1", file=sys.stderr)
        return 2
    observer = None
    recorder = None
    if args.trace_dir is not None:
        from pathlib import Path

        from repro.obs import JsonlRecorder, Observer
        from repro.obs.report import TRACE_FILE

        out = Path(args.trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        # Fresh run: drop any stale journal (the recorder appends so a
        # checkpoint-resumed run can extend it; a new run must not).
        (out / TRACE_FILE).unlink(missing_ok=True)
        recorder = JsonlRecorder(out / TRACE_FILE)
        observer = Observer(recorder=recorder, span_seed=args.seed)
    # Any shard-tier flag goes to the builder that owns those knobs, so
    # its constructor is what rejects a combination it cannot honour.
    sharded = args.cache_shards or args.resize_shards_at is not None
    try:
        if args.world_size > 1 or sharded:
            trainer = _make_dp_run(args, args.policy, observer=observer)
        else:
            trainer, _, _ = _make_run(args, args.policy, observer=observer)
    except ValueError as exc:
        return _reject(exc)
    result = trainer.run()
    print(f"{'epoch':>5} {'acc':>7} {'hit':>6} {'subst':>6} {'time':>7}")
    for e in result.epochs:
        print(f"{e.epoch:>5} {e.val_accuracy:>7.3f} {e.hit_ratio:>6.3f} "
              f"{e.substitute_ratio:>6.3f} {e.epoch_time_s:>6.2f}s")
    s = result.summary()
    print(f"\n{args.policy}: accuracy {s['final_accuracy']:.3f}, "
          f"mean hit {s['mean_hit_ratio']:.3f}, "
          f"simulated time {s['total_time_s']:.1f}s")
    if observer is not None:
        from repro.obs import write_run_artifacts

        recorder.close()
        write_run_artifacts(
            result,
            args.trace_dir,
            metrics_snapshot=observer.snapshot(),
            meta={
                "policy": args.policy,
                "preset": args.preset,
                "model": args.model,
                "seed": args.seed,
                "samples": args.samples,
                "epochs": args.epochs,
                "batch_size": args.batch_size,
                "cache_fraction": args.cache_fraction,
                "world_size": args.world_size,
                "shared_cache": args.shared_cache,
                "cache_shards": args.cache_shards,
                "transport": args.transport,
            },
        )
        print(f"run artifacts written to {args.trace_dir}/ "
              f"(view with `repro report {args.trace_dir}`)")
    return 0


def _cmd_report(args) -> int:
    from repro.obs import render_report

    try:
        print(render_report(args.run_dir))
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_metrics(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import render_prometheus
    from repro.obs.report import LOAD_FILE, SUMMARY_FILE

    run_dir = Path(args.run_dir)
    snapshot = None
    for name in (SUMMARY_FILE, LOAD_FILE):
        path = run_dir / name
        if path.is_file():
            snapshot = json.loads(path.read_text()).get("metrics")
            if snapshot is not None:
                break
    if snapshot is None:
        print(
            f"no metrics snapshot found under {run_dir}/ — run "
            "`repro train --trace-dir` or `repro load --trace-dir` first",
            file=sys.stderr,
        )
        return 2
    sys.stdout.write(render_prometheus(snapshot, prefix=args.prefix))
    return 0


def _cmd_compare(args) -> int:
    results = []
    for name in args.policies:
        trainer, _, _ = _make_run(args, name)
        results.append((name, trainer.run()))
        print(f"finished {name}", file=sys.stderr)
    baseline_t = max(r.total_time_s for _, r in results)
    print(f"{'policy':<16} {'hit':>6} {'acc':>7} {'time':>8} {'speedup':>8}")
    for name, r in results:
        print(f"{name:<16} {r.mean_hit_ratio:>6.3f} "
              f"{r.final_accuracy:>7.3f} {r.total_time_s:>7.1f}s "
              f"{baseline_t / r.total_time_s:>7.2f}x")
    return 0


def _cmd_trace(args) -> int:
    trainer, policy, train = _make_run(args, args.policy)
    # Train first so importance-driven policies reach their steady-state
    # sampling distribution; the recorded trace then reflects real access
    # behaviour rather than the cold uniform start.
    trainer.run()
    orders = []
    for epoch in range(args.epochs):
        orders.append(np.asarray(policy.epoch_order(epoch), dtype=np.int64))
    trace = AccessTrace(
        np.concatenate(orders), list(np.cumsum([len(o) for o in orders]))
    )
    cap = int(args.capacity * len(train))
    lru = replay(trace, LRUCache(cap)).hit_ratio
    minio = replay(trace, MinIOCache(cap)).hit_ratio
    opt = belady_hit_ratio(trace, cap)
    print(f"trace: {len(trace)} requests over {trace.n_epochs} epochs, "
          f"{trace.unique_count} unique of {len(train)} samples")
    print(f"replay at capacity {cap} ({args.capacity:.0%}):")
    print(f"  LRU        {lru:.3f}")
    print(f"  MinIO      {minio:.3f}")
    print(f"  Belady OPT {opt:.3f}")
    return 0


def _build_arrivals(args):
    """Map the ``--arrivals`` flag (plus rate knobs) to an ArrivalProcess."""
    from repro.load import (
        BurstyArrivals,
        ConstantArrivals,
        DiurnalArrivals,
        ModulatedArrivals,
    )

    if args.arrivals == "constant":
        return ConstantArrivals(rate=args.base_rate)
    if args.arrivals == "diurnal":
        return DiurnalArrivals(
            base_rate=args.base_rate,
            amplitude=args.diurnal_amplitude,
            period_s=args.diurnal_period_s,
        )
    bursty = BurstyArrivals(
        rate_low=args.base_rate,
        rate_high=args.burst_rate,
        mean_on_s=args.mean_on_s,
        mean_off_s=args.mean_off_s,
    )
    if args.arrivals == "bursty-diurnal":
        return ModulatedArrivals(
            bursty,
            amplitude=args.diurnal_amplitude,
            period_s=args.diurnal_period_s,
        )
    return bursty


def _cmd_load(args) -> int:
    # Only what no constructor below checks for every invocation: where the
    # CLI is stricter than the config classes (a trace needs a request; the
    # key space must cover the smallest ring), and the rate knobs that only
    # some --arrivals choices consume (an invalid flag is never a silently
    # ignored one). Every other flag reaches a constructor that rejects it.
    checks = [
        (args.requests < 1, "--requests must be >= 1"),
        (args.keys < 8, "--keys must be >= 8"),
        (args.burst_rate <= 0, "--burst-rate must be positive"),
        (args.mean_on_s <= 0 or args.mean_off_s <= 0,
         "--mean-on-s and --mean-off-s must be positive"),
        (not 0.0 <= args.diurnal_amplitude < 1.0,
         "--diurnal-amplitude must be in [0, 1)"),
        (args.diurnal_period_s <= 0, "--diurnal-period-s must be positive"),
    ]
    for bad, msg in checks:
        if bad:
            print(msg, file=sys.stderr)
            return 2

    from repro.load import (
        Autoscaler,
        AutoscalerConfig,
        ReplayConfig,
        ReplayHarness,
        SloPolicy,
        TraceConfig,
        make_trace,
        write_load_artifacts,
    )

    # Construction only: the config and arrival classes reject what they
    # are handed (exit 2 through ``_reject``); a ValueError out of
    # ``harness.run`` below is a bug and keeps its traceback.
    try:
        trace = make_trace(
            TraceConfig(
                n_requests=args.requests,
                n_keys=args.keys,
                zipf_exponent=args.zipf_skew,
                put_fraction=args.put_fraction,
            ),
            _build_arrivals(args),
            seed=args.seed,
        )
        # Built (hence checked) under --no-autoscale too.
        scaling = AutoscalerConfig(
            min_shards=args.min_shards,
            max_shards=args.max_shards,
            p99_high_s=args.p99_high_ms / 1e3,
            p99_low_s=args.p99_low_ms / 1e3,
            util_high=args.util_high,
            util_low=args.util_low,
            breach_windows=args.breach_windows,
            cooldown_windows=args.cooldown_windows,
            growth_factor=args.growth_factor,
        )
        autoscaler = None if args.no_autoscale else Autoscaler(scaling)
        config = ReplayConfig(
            total_capacity=args.capacity,
            imp_ratio=args.imp_ratio,
            n_shards=args.shards,
            transport=args.transport,
            window_requests=args.window,
            slo=SloPolicy(target_s=args.slo_ms / 1e3, goal=args.slo_goal),
            miss_latency_s=args.miss_ms / 1e3,
            service_rate_per_shard=args.service_rate,
            seed=args.seed,
        )
    except ValueError as exc:
        return _reject(exc)
    print(f"trace: {len(trace)} requests over {trace.duration_s:.2f}s "
          f"({trace.offered_rps:.1f} req/s, {args.arrivals} arrivals, "
          f"zipf {args.zipf_skew:g}, checksum {trace.checksum()})",
          file=sys.stderr)

    observer = None
    recorder = None
    if args.trace_dir is not None:
        from pathlib import Path

        from repro.obs import JsonlRecorder, Observer
        from repro.obs.report import TRACE_FILE

        out = Path(args.trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / TRACE_FILE).unlink(missing_ok=True)
        recorder = JsonlRecorder(out / TRACE_FILE)
        observer = Observer(recorder=recorder, span_seed=args.seed)

    try:
        harness = ReplayHarness(config, autoscaler=autoscaler, observer=observer)
    except ValueError as exc:
        return _reject(exc)
    try:
        result = harness.run(trace)
    finally:
        harness.close()
    if recorder is not None:
        recorder.close()

    lat = result.overall
    print(f"replayed {result.n_requests} requests: "
          f"p50 {lat.p50_s * 1e3:.3f}ms  p99 {lat.p99_s * 1e3:.3f}ms  "
          f"p999 {lat.p999_s * 1e3:.3f}ms  max {lat.max_s * 1e3:.3f}ms")
    verdict = "MET" if result.slo_met else "MISSED"
    print(f"SLO: {result.attainment * 100:.3f}% within {args.slo_ms:g}ms "
          f"(goal {args.slo_goal * 100:g}%) -> {verdict}")
    print(f"cache: hit_ratio {result.cache['hit_ratio']:.3f}  "
          f"dropped {result.cache['dropped_admits']}  "
          f"degraded {result.cache['degraded_lookups']}")
    print(f"autoscaler: {result.grows} grow(s), {result.shrinks} shrink(s); "
          f"shards {result.initial_shards} -> {result.final_shards} "
          f"({result.resizes_verified} resize(s) verified, "
          f"{result.moved_keys} key(s) moved)")
    for d in result.decisions:
        print(f"  window {d.window:>4}: {d.action:<6} {d.old_n} -> {d.new_n}"
              f"  ({d.reason})")
    alerts = result.alerts
    firing = alerts.get("firing", [])
    events = alerts.get("events", [])
    status = "FIRING: " + ", ".join(firing) if firing else "none firing"
    print(f"burn-rate alerts: {status} "
          f"({len(events)} transition(s))")
    for ev in events:
        print(f"  window {ev['window']:>4}: {ev['rule']:<5} "
              f"{ev['state']:<9} burn short={ev['burn_short']:.2f}x "
              f"long={ev['burn_long']:.2f}x (thr {ev['threshold']:g}x)")
    print(f"digest: {result.digest()}")
    if args.trace_dir is not None:
        write_load_artifacts(
            result, args.trace_dir,
            metrics_snapshot=observer.snapshot(),
        )
        print(f"run artifacts written to {args.trace_dir}/ "
              f"(view with `repro report {args.trace_dir}`)")
    return 0


def _cmd_faults(args) -> int:
    import tempfile
    from pathlib import Path

    from repro.resilience.campaign import DEFAULT_SCENARIOS, FaultCampaign
    from repro.resilience.trainer import ResilientTrainer

    scenarios = DEFAULT_SCENARIOS
    if args.scenarios:
        by_name = {s.name: s for s in DEFAULT_SCENARIOS}
        unknown = [n for n in args.scenarios if n not in by_name]
        if unknown:
            print(f"unknown scenarios: {', '.join(unknown)} "
                  f"(available: {', '.join(sorted(by_name))})", file=sys.stderr)
            return 2
        scenarios = [by_name[n] for n in args.scenarios]

    root = Path(args.checkpoint_dir) if args.checkpoint_dir else Path(
        tempfile.mkdtemp(prefix="repro-faults-")
    )

    def make_trainer(checkpoint_dir, preemptions, restart_penalty_s):
        data = make_dataset(args.preset, rng=args.seed, n_samples=args.samples)
        train, test = train_test_split(data, test_fraction=0.25,
                                       rng=args.seed + 1)
        model = build_model(args.model, train.dim, train.num_classes,
                            rng=args.seed + 2)
        policy = POLICIES[args.policy](args.cache_fraction, args.seed + 3)
        return ResilientTrainer(
            model, train, test, policy,
            TrainerConfig(
                epochs=args.epochs,
                batch_size=args.batch_size,
                prefetch_workers=getattr(args, "prefetch_workers", 0),
            ),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_batches=args.checkpoint_every,
            preemptions=preemptions,
            restart_penalty_s=restart_penalty_s,
        )

    campaign = FaultCampaign(make_trainer, root, scenarios)
    result = campaign.run(verbose=True,
                          log=lambda m: print(m, file=sys.stderr))
    print(result.format_table())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return {
        "info": _cmd_info,
        "train": _cmd_train,
        "compare": _cmd_compare,
        "trace": _cmd_trace,
        "load": _cmd_load,
        "faults": _cmd_faults,
        "report": _cmd_report,
        "metrics": _cmd_metrics,
    }[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
