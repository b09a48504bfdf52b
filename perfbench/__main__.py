"""Command line of the benchmark.

``python -m perfbench single --workload W --seed S --seconds T --trace 0|1``
    One run of one workload — the command ``BENCHMARK.json`` names. Prints
    every metric with its unit, then one JSON object as the last line.
``python -m perfbench run --seed S [--repeats R] [--quick] [--out FILE]``
    Every workload, both passes, one JSON result file.
``python -m perfbench compare A.json B.json [...]``
    Verdict per workload and end-to-end metric of each later file against
    the first.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from perfbench import ROOT, SCRATCH
from perfbench.compare import compare_files
from perfbench.runner import git_commit, load_contract, run_workload, with_units
from perfbench.workloads import RUN_SECONDS, WORKLOADS


def _print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")


def _print_checks(result: dict) -> None:
    for row in result["checks"]:
        print(f"  [{'ok' if row['ok'] else 'FAILED'}] {row['check']}: {row['detail']}")


def cmd_single(args: argparse.Namespace) -> int:
    """One run of one workload, reported in the driver's format."""
    contract = load_contract()
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    if args.trace:
        metrics = with_units(result["per_layer"], contract["per_layer"])
    else:
        metrics = with_units(result["end_to_end"], contract["end_to_end"])
    _print_metrics(
        f"{args.workload} seed={args.seed} epochs={result['epochs']} "
        f"samples={result['samples']} run()={result['wall_s']:.2f}s",
        metrics,
    )
    _print_checks(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def cmd_run(args: argparse.Namespace) -> int:
    """Every workload, untraced and traced, into one result file."""
    contract = load_contract()
    results: List[dict] = []
    for rep in range(args.repeats):
        for name in WORKLOADS:
            result = run_workload(name, args.seed, args.seconds, True, args.quick)
            result["repeat"] = rep
            result["end_to_end"] = with_units(
                result["end_to_end"], contract["end_to_end"]
            )
            result["per_layer"] = with_units(
                result["per_layer"], contract["per_layer"]
            )
            _print_metrics(
                f"== {name} seed={args.seed} repeat={rep} epochs={result['epochs']} "
                f"samples={result['samples']} run()={result['wall_s']:.2f}s",
                {**result["end_to_end"], **result["per_layer"]},
            )
            _print_checks(result)
            results.append(result)

    host = dict(results[0]["host"])
    host.update(
        {k: results[0]["per_layer"][k]["value"] for k in ("host.matmul_ms", "host.pyloop_ms")}
    )
    host["git_commit"] = git_commit()
    report = {
        "schema": 1,
        # This benchmark defines the instrument; it changes no program
        # behaviour and claims no gain.
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "host": host,
        "results": results,
    }
    out = args.out or SCRATCH / f"result-seed{args.seed}.json"
    SCRATCH.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    correct = all(r["correct"] for r in results)
    print(f"wrote {out}; output checks {'passed' if correct else 'FAILED'}")
    return 0 if correct else 1


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare result files; non-zero if anything regressed or is unresolved."""
    return compare_files(args.files, load_contract())


def main(argv=None) -> int:
    """Parse ``argv`` and dispatch to the subcommand."""
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    single = sub.add_parser("single", help="one run of one workload")
    single.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    single.add_argument("--seed", type=int, required=True)
    single.add_argument("--seconds", type=float, default=RUN_SECONDS)
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    single.add_argument("--quick", action="store_true",
                        help="tiny sizes (the self-test's mode)")
    single.set_defaults(fn=cmd_single)

    run = sub.add_parser("run", help="every workload, both passes")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--quick", action="store_true")
    run.add_argument("--out")
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare", help="compare result files")
    compare.add_argument("files", nargs="+")
    compare.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    if args.command != "compare" and not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
