"""Self-test of the benchmark: ``python -m pytest perfbench/tests``.

Not part of tier-1 (``testpaths`` stays ``tests/``). Uses ``--quick``:
the same code as the real benchmark at sizes that finish in seconds.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import layers  # noqa: E402
from perfbench.compare import verdict  # noqa: E402
from perfbench.tracer import ROOT_SPAN, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, build  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ("ok_ops_share", "hit_ratio", "val_accuracy", "sim_epoch_time_s")
# train_sharded's epoch time contains measured pipe round trips.
SIM_CLOCK_WORKLOADS = ("train_exact", "train_hnsw", "train_traced")


def _perfbench(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    return proc.stdout


def _single(workload, seed):
    out = _perfbench("single", "--workload", workload, "--seed", str(seed),
                     "--trace", "0", "--quick")
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One full ``run --quick``: every workload, both passes."""
    out = tmp_path_factory.mktemp("perfbench") / "quick.json"
    _perfbench("run", "--quick", "--seed", "0", "--out", str(out))
    return json.loads(out.read_text())


def test_contract_names_and_workloads():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in CONTRACT["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in CONTRACT["workloads"])


def test_every_declared_metric_is_emitted_with_its_unit(report):
    assert report["claim"] is None
    assert {r["workload"] for r in report["results"]} == set(WORKLOADS)
    for result in report["results"]:
        assert result["correct"], result["checks"]
        for block in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in CONTRACT[block]}
            emitted = {k: v["unit"] for k, v in result[block].items()}
            assert emitted == declared
            assert all(
                isinstance(v["value"], (int, float)) for v in result[block].values()
            )


def test_host_block(report):
    host = report["host"]
    assert host["blas_threads"] == "1"
    assert host["host.matmul_ms"] > 0 and host["host.pyloop_ms"] > 0
    assert {"nproc", "python", "numpy", "git_commit"} <= set(host)


def test_layer_shares_and_residual_cover_the_run(report):
    for result in report["results"]:
        rows = {k: v["value"] for k, v in result["per_layer"].items()}
        covered = sum(v for k, v in rows.items() if k.endswith(".share"))
        assert covered + rows["train.unattributed_share"] == pytest.approx(1.0, abs=1e-9)


def test_each_layer_has_a_workload_where_it_does_nothing(report):
    rows = {
        r["workload"]: {k: v["value"] for k, v in r["per_layer"].items()}
        for r in report["results"]
    }
    assert rows["train_sharded"]["dist.rpc_calls"] > 0
    assert rows["train_traced"]["obs.events_per_sample"] > 0
    assert rows["train_hnsw"]["ann.neighbor_recall"] >= 0.95
    for name in ("train_exact", "train_hnsw"):
        assert rows[name]["dist.share"] == 0 and rows[name]["obs.share"] == 0


def test_untraced_pass_reports_no_wrappers(report):
    for result in report["results"]:
        checks = {c["check"]: c for c in result["checks"]}
        assert checks["untraced.wrappers"]["ok"]
        assert checks["untraced.wrappers"]["detail"].startswith("0 installed")
        assert checks["traced.wrappers"]["ok"]


def test_deterministic_metrics_repeat_per_seed_and_move_with_it():
    for workload in WORKLOADS:
        first, again, other = _single(workload, 0), _single(workload, 0), _single(workload, 1)
        names = DETERMINISTIC if workload in SIM_CLOCK_WORKLOADS else DETERMINISTIC[:3]
        same = [first["metrics"][n]["value"] == again["metrics"][n]["value"] for n in names]
        assert all(same), (workload, names, same)
        assert any(
            first["metrics"][n]["value"] != other["metrics"][n]["value"]
            for n in ("hit_ratio", "val_accuracy")
        ), workload
        assert first["failed"] == 0 and first["attempted"] >= 1


def test_wrappers_exist_only_after_install():
    w = WORKLOADS["train_traced"]
    stack = build(w, seed=0, epochs=1, n_samples=w.quick_samples)
    targets = [
        (stack.replicas[0].loader, "collate"), (stack.policy.cache, "fetch"),
        (stack.store, "get"), (stack.policy.scorer.index, "neighbors_within_batch"),
    ]
    assert not any(attr in vars(obj) for obj, attr in targets)
    tracer = Tracer()
    layers.install(tracer, stack)
    assert all(attr in vars(obj) for obj, attr in targets)
    assert len(tracer.installed) >= len(targets)


def test_self_times_and_residual_sum_to_the_root_span():
    class Leafy:
        def leaf(self):
            time.sleep(0.002)

        def branch(self):
            time.sleep(0.001)
            self.leaf()
            self.leaf()

    obj, tracer = Leafy(), Tracer()
    tracer.wrap(obj, "leaf", "nn.leaf")
    tracer.wrap(obj, "branch", "core.branch")

    def run():
        time.sleep(0.001)
        obj.branch()
        obj.leaf()

    tracer.timed(run, ROOT_SPAN)()
    table = tracer.analyse()
    assert table.calls("nn.leaf") == 3 and table.calls("core.branch") == 1
    assert table.self_time_s("core.branch") < table.total_s("core.branch")
    per_layer = table.layer_self_s()
    assert set(per_layer) == {"nn", "core", "train"}
    assert sum(per_layer.values()) == pytest.approx(table.total_s(ROOT_SPAN), abs=1e-9)
    assert per_layer["train"] >= 0.001  # the residual: run()'s own sleep


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, steady, "higher", 0.10)["verdict"] == "unchanged"
    assert verdict(steady, [80.0, 81.0, 79.0, 80.5], "higher", 0.10)["verdict"] == "regressed"
    assert verdict(steady, [80.0, 81.0, 79.0, 80.5], "lower", 0.10)["verdict"] == "improved"
    noisy = [60.0, 100.0, 140.0, 100.0]
    assert verdict(steady, noisy, "higher", 0.10)["verdict"] == "unresolved"
