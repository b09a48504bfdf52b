"""Schedule workload subprocesses and check what they report.

One :func:`run_workload` call is one benchmark run of one workload:

1. a few set-up-only subprocesses (``setup_s`` is the median over them
   and the measured run's own set-up);
2. the **untraced pass** — end-to-end metrics, no wrapper installed;
3. with ``trace``: the **traced pass** in a second subprocess — per-layer
   rows, plus the check that it computed exactly what the untraced pass
   did (the wrappers changed nothing).

Every subprocess gets ``OPENBLAS/OMP/MKL_NUM_THREADS=1`` and finds
``repro`` under ``<checkout>/src``. Load is a closed loop with one
client, the training loop; the only other processes are the two shard
workers ``train_sharded`` forks.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

from perfbench import ROOT
from perfbench.workloads import (
    RECALL_FLOOR,
    UNATTRIBUTED_CEILING,
    WORKLOADS,
    Workload,
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up-only subprocesses per run, besides the measured pass's own set-up.
EXTRA_SETUPS = 4

#: One subprocess may take this long before the run is declared hung.
PASS_TIMEOUT_S = 170


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _spawn(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload subprocess to completion; return its JSON result."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", json.dumps(spec)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload subprocess failed (exit {proc.returncode}): {spec}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checks:
    """Output checks of one run: each has a name, a verdict and a detail."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.rows.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def all_ok(self) -> bool:
        return all(row["ok"] for row in self.rows)


def _check_pass(checks: Checks, label: str, w: Workload, res: dict, quick: bool) -> None:
    """Checks every pass must satisfy on its own."""
    f, e2e = res["facts"], res["end_to_end"]
    expected = res["n_train"] * res["epochs"]
    served = f["hits"] + f["substitute_hits"] + f["misses"] + f["degraded_serves"]
    checks.add(
        f"{label}.requests_accounted",
        served == expected == f["requests"] + f["degraded_serves"],
        f"exact {f['hits']} + substitute {f['substitute_hits']} + remote "
        f"{f['misses']} + degraded {f['degraded_serves']} = {served}, "
        f"issued {expected}",
    )
    checks.add(
        f"{label}.remote_misses_match_store",
        f["store_fetches"] == f["misses"],
        f"RemoteStore.fetch_count {f['store_fetches']} vs misses {f['misses']}",
    )
    worst = max(
        abs(sum(stages[:4]) + f["comm_s_per_epoch"] - stages[4])
        for stages in f["epoch_stages"]
    )
    checks.add(
        f"{label}.stage_times_sum_to_epoch_time", worst < 1e-9,
        f"largest per-epoch gap {worst:.3e} s",
    )
    checks.add(
        f"{label}.no_failed_ops", f["failed"] == 0,
        f"{f['failed']} failed of {f['attempted']} attempted",
    )
    traced = label == "traced"
    checks.add(
        f"{label}.wrappers", bool(f["wrappers"]) == traced,
        f"{len(f['wrappers'])} installed, expected {'some' if traced else 'none'}",
    )
    floor = 0.0 if quick else w.accuracy_floor
    checks.add(
        f"{label}.val_accuracy_floor", e2e["val_accuracy"] >= floor,
        f"{e2e['val_accuracy']:.4f} >= {floor}",
    )


def _check_traced(checks: Checks, w: Workload, plain: dict, traced: dict) -> None:
    """Checks on the traced pass and on the two passes together."""
    rows, f = traced["per_layer"], traced["facts"]
    checks.add(
        "traced.storage_calls_match_misses",
        rows["storage.get_calls"] == f["misses"],
        f"storage.get_calls {rows['storage.get_calls']} vs misses {f['misses']}",
    )
    checks.add(
        "traced.unattributed_share",
        rows["train.unattributed_share"] <= UNATTRIBUTED_CEILING,
        f"{rows['train.unattributed_share']:.4f} <= {UNATTRIBUTED_CEILING}",
    )
    if w.backend == "hnsw":
        checks.add(
            "traced.neighbor_recall", rows["ann.neighbor_recall"] >= RECALL_FLOOR,
            f"{rows['ann.neighbor_recall']:.4f} >= {RECALL_FLOOR}",
        )
    # The wrappers changed nothing: both passes computed the same run.
    # train_sharded's epoch time contains measured pipe round trips, so
    # there it only has to agree closely.
    a, b = plain["end_to_end"], traced["end_to_end"]
    same = a["hit_ratio"] == b["hit_ratio"] and a["val_accuracy"] == b["val_accuracy"]
    sim_gap = abs(a["sim_epoch_time_s"] - b["sim_epoch_time_s"]) / a["sim_epoch_time_s"]
    same = same and sim_gap <= (0.05 if w.sharded else 0.0)
    checks.add(
        "traced.same_run_as_untraced", same,
        f"hit {a['hit_ratio']:.6f}/{b['hit_ratio']:.6f}, accuracy "
        f"{a['val_accuracy']:.6f}/{b['val_accuracy']:.6f}, sim epoch gap {sim_gap:.2e}",
    )


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> Dict[str, Any]:
    """One benchmark run of one workload (see the module docstring)."""
    w = WORKLOADS[name]
    spec = {
        "workload": name, "seed": seed, "seconds": seconds, "quick": quick,
        "trace": False, "setup_only": False,
    }
    setups = [
        _spawn({**spec, "setup_only": True})
        for _ in range(0 if quick else EXTRA_SETUPS)
    ]
    plain = _spawn(spec)
    checks = Checks()
    _check_pass(checks, "untraced", w, plain, quick)

    end_to_end = dict(plain["end_to_end"])
    end_to_end["setup_s"] = statistics.median(
        [s["setup_s"] for s in setups] + [end_to_end["setup_s"]]
    )
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "epochs": plain["epochs"],
        "n_train": plain["n_train"],
        "samples": plain["n_train"] * plain["epochs"],
        "wall_s": plain["facts"]["wall_s"],
        "attempted": plain["facts"]["attempted"],
        "failed": plain["facts"]["failed"],
        "end_to_end": end_to_end,
        "per_layer": None,
        "host": plain["host"],
    }

    if trace:
        traced = _spawn({**spec, "trace": True})
        _check_pass(checks, "traced", w, traced, quick)
        _check_traced(checks, w, plain, traced)
        rows = traced["per_layer"]
        for key in plain["setup"]:
            rows[key] = statistics.median(
                [s["setup"][key] for s in setups]
                + [plain["setup"][key], traced["setup"][key]]
            )
        rows["train.trace_pass_ratio"] = (
            traced["facts"]["wall_s"] / plain["facts"]["wall_s"]
        )
        result["per_layer"] = rows
        result["attempted"] += traced["facts"]["attempted"]
        result["failed"] += traced["facts"]["failed"]

    result["checks"] = checks.rows
    result["correct"] = checks.all_ok
    return result


def with_units(values: Dict[str, float], declared: List[dict]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics.

    Raises if the run and ``BENCHMARK.json`` disagree on the metric set —
    a row the contract does not know, or one it expects and did not get.
    """
    names = [d["name"] for d in declared]
    if set(names) != set(values):
        raise RuntimeError(
            "metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}"
        )
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None
