"""R1 — fault-campaign sweep: degradation and recovery cost table.

Runs the default fault scenarios (outage, brownout, preemption, and the
combined case) against one SpiderCache configuration and reports, per
scenario, the accuracy delta, simulated-time overhead, restart/replay
cost, and degraded-serving volume relative to the clean baseline.

Shape assertions: every scenario must *complete* (that is the whole point
of the resilience subsystem), pure preemption must recover to the clean
accuracy exactly, and the brownout must cost time but no accuracy.
"""

from conftest import print_table

from repro.core.policy import SpiderCachePolicy
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.resilience.campaign import DEFAULT_SCENARIOS, FaultCampaign
from repro.resilience.trainer import ResilientTrainer
from repro.train.trainer import TrainerConfig


def _run_campaign(tmp_root):
    def make_trainer(**kw):
        data = make_dataset("cifar10-like", rng=0, n_samples=400)
        train, test = train_test_split(data, test_fraction=0.25, rng=1)
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(cache_fraction=0.2, rng=3)
        cfg = TrainerConfig(epochs=3, batch_size=32)
        return ResilientTrainer(
            model, train, test, policy, cfg,
            checkpoint_every_batches=10, **kw,
        )

    return FaultCampaign(make_trainer, tmp_root, DEFAULT_SCENARIOS).run()


def test_bench_fault_campaign(once, benchmark, tmp_path):
    result = once(_run_campaign, tmp_path)
    rows = [
        (
            r.scenario,
            "yes" if r.completed else "NO",
            f"{r.final_accuracy:.3f}",
            f"{r.accuracy_delta:+.3f}",
            f"{r.time_overhead_s:+.1f}s",
            r.restarts,
            r.replayed_batches,
            f"{r.recovery_s:.1f}s",
            r.degraded_substituted,
            r.degraded_skipped,
            r.breaker_opens,
        )
        for r in result.reports
    ]
    print_table(
        "Fault campaign: degradation and recovery vs clean baseline "
        f"(clean acc {result.clean_accuracy:.3f}, "
        f"time {result.clean_time_s:.1f}s)",
        ["scenario", "done", "acc", "d_acc", "d_time", "restarts",
         "replayed", "recovery", "substituted", "skipped", "opens"],
        rows,
    )
    benchmark.extra_info["rows"] = rows

    by_name = {r.scenario: r for r in result.reports}
    assert all(r.completed for r in result.reports)
    # Exact recovery: preemption alone changes nothing but time.
    preempt = by_name["preempt"]
    assert preempt.restarts >= 1
    assert abs(preempt.accuracy_delta) < 1e-12
    assert preempt.time_overhead_s > 0  # restart penalty + replay
    # Brownouts slow storage down but never lose samples.
    brownout = by_name["brownout"]
    assert brownout.brownout_extra_s > 0
    assert brownout.degraded_skipped == 0
    # Outages force degraded serving and trip the breaker.
    outage = by_name["outage"]
    assert outage.outage_failures > 0
    assert outage.breaker_opens >= 1
