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

``train`` runs one policy and prints per-epoch metrics (with
``--trace-dir`` it also records a structured event trace and exports the
run artifacts); ``compare`` runs several policies on the identical
dataset/model and prints the Fig.-1 triangle (hit ratio / accuracy /
time); ``trace`` records the policy's access trace and reports LRU /
MinIO / Belady-OPT hit ratios on it; ``report`` renders the tables for
an exported run directory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baselines.registry import POLICIES
from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache
from repro.cache.trace import belady_hit_ratio, record_trace, replay
from repro.data.registry import DATASET_PRESETS, make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import MODEL_ZOO, build_model
from repro.train.trainer import Trainer, TrainerConfig

__all__ = ["main"]


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
        help="every worker fetches through ONE logical cache instead of "
             "per-worker caches (any --world-size)",
    )
    train_p.add_argument(
        "--cache-shards", type=int, default=0,
        help="partition the shared cache across this many shard servers "
             "behind simulated RPC (requires --shared-cache)",
    )
    train_p.add_argument(
        "--transport", choices=("sim", "real"), default="sim",
        help="shard-tier transport: 'sim' (simulated RPC channel, "
             "deterministic; default) or 'real' (shard servers in worker "
             "processes, same modelled RPC time); 'real' requires "
             "--cache-shards",
    )
    train_p.add_argument(
        "--rpc-deadline-ms", type=float, default=None,
        help="per-call deadline for cache-protocol RPCs (sharded service); "
             "default 10 with --transport sim, 1000 with --transport real "
             "(real IPC has genuine latency jitter); another value "
             "requires --cache-shards",
    )
    train_p.add_argument(
        "--rpc-retry-budget", type=int, default=3,
        help="total attempts per cache-protocol request, first included "
             "(1 disables retries); another value than 3 requires "
             "--cache-shards",
    )
    add_common(train_p)

    report_p = sub.add_parser(
        "report", help="render the report for an exported run directory"
    )
    report_p.add_argument(
        "run_dir", help="directory written by `repro train --trace-dir`"
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


def _build_parts(args, policy_name: str):
    """The train/test split plus model and policy factories, seeded from
    ``--seed`` the same way for every subcommand: dataset ``seed``, split
    ``seed+1``, model ``seed+2``, policy ``seed+3+offset``."""
    data = make_dataset(args.preset, rng=args.seed, n_samples=args.samples)
    train, test = train_test_split(data, test_fraction=0.25, rng=args.seed + 1)

    def make_model():
        # Fresh rng per call: every replica starts from identical weights.
        return build_model(args.model, train.dim, train.num_classes,
                           rng=args.seed + 2)

    def make_policy(offset: int = 0):
        return POLICIES[policy_name](args.cache_fraction, args.seed + 3 + offset)

    return train, test, make_model, make_policy


def _make_run(args, policy_name: str, observer=None, config=None):
    train, test, make_model, make_policy = _build_parts(args, policy_name)
    model = make_model()
    policy = make_policy()
    trainer = Trainer(
        model, train, test, policy,
        config or TrainerConfig(epochs=args.epochs, batch_size=args.batch_size),
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


def _make_dp_run(args, policy_name: str, config, observer=None):
    """Build a DataParallelTrainer for ``--world-size`` other than 1 (or
    any shared-cache-tier flag) train invocations."""
    from repro.train.data_parallel import DataParallelTrainer

    train, test, make_model, make_policy = _build_parts(args, policy_name)

    def policy_factory(rank: int):
        # One shared tier sees one stream: every rank gets the same seed.
        return make_policy(0 if args.shared_cache else rank)

    return DataParallelTrainer(
        make_model, train, test, policy_factory,
        world_size=args.world_size,
        config=config,
        observer=observer,
        rng=args.seed + 4,
    )


def _reject(exc: ValueError) -> int:
    """A configuration the constructors refused: message on stderr, exit 2."""
    print(exc, file=sys.stderr)
    return 2


def _cmd_train(args) -> int:
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

        from repro.obs.observer import Observer
        from repro.obs.report import TRACE_FILE
        from repro.obs.trace import JsonlRecorder

        trace = Path(args.trace_dir) / TRACE_FILE
        trace.parent.mkdir(parents=True, exist_ok=True)
        recorder = JsonlRecorder(trace)
        observer = Observer(recorder=recorder, span_seed=args.seed)
    # Any world size but 1 and any shared-cache-tier flag go to the builder
    # that owns those knobs, so its constructor is what rejects a value or
    # a combination it cannot honour.
    shared_tier = args.shared_cache or args.cache_shards
    config = TrainerConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        clock_mode=args.transport,
        shared_cache=args.shared_cache,
        cache_shards=args.cache_shards,
        rpc_deadline_s=args.rpc_deadline_ms / 1e3,
        rpc_retry_budget=args.rpc_retry_budget,
    )
    try:
        if args.world_size != 1 or shared_tier:
            trainer = _make_dp_run(args, args.policy, config, observer=observer)
        else:
            trainer, _, _ = _make_run(args, args.policy, observer, config)
    except ValueError as exc:
        return _reject(exc)
    if recorder is not None:
        # Fresh run: drop the previous run's journal (the recorder opens
        # its file on the first event, in append mode, so a
        # checkpoint-resumed run can extend it; a new run must not). Only
        # now: a rejected command leaves it as it was.
        trace.unlink(missing_ok=True)
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
        from repro.obs.report import write_run_artifacts

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
    from repro.obs.report import render_report

    try:
        print(render_report(args.run_dir))
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_compare(args) -> int:
    results = []
    for name in args.policies:
        try:
            trainer, _, _ = _make_run(args, name)
        except ValueError as exc:
            return _reject(exc)
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
    try:
        trainer, policy, train = _make_run(args, args.policy)
    except ValueError as exc:
        return _reject(exc)
    # Train first so importance-driven policies reach their steady-state
    # sampling distribution; the recorded trace then reflects real access
    # behaviour rather than the cold uniform start.
    trainer.run()
    trace = record_trace(policy.epoch_order, args.epochs)
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


def _cmd_faults(args) -> int:
    import contextlib
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

    def make_trainer(checkpoint_dir, preemptions, restart_penalty_s):
        train, test, make_model, make_policy = _build_parts(args, args.policy)
        model = make_model()
        return ResilientTrainer(
            model, train, test, make_policy(),
            TrainerConfig(epochs=args.epochs, batch_size=args.batch_size),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_batches=args.checkpoint_every,
            preemptions=preemptions,
            restart_penalty_s=restart_penalty_s,
        )

    # Without --checkpoint-dir the checkpoints live only as long as the run.
    checkpoints = (
        contextlib.nullcontext(args.checkpoint_dir) if args.checkpoint_dir
        else tempfile.TemporaryDirectory(prefix="repro-faults-")
    )
    with checkpoints as root:
        try:
            # The campaign builds its trainers as it goes: let the
            # constructors refuse the configuration before anything runs.
            make_trainer(Path(root), None, 0.0)
        except ValueError as exc:
            return _reject(exc)
        campaign = FaultCampaign(make_trainer, Path(root), scenarios)
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
        "faults": _cmd_faults,
        "report": _cmd_report,
    }[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
