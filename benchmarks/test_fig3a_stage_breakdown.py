"""E1 — Fig. 3(a): per-stage time breakdown of uncached training.

Paper: Data Loading + Computation account for >95% of total time, with
Data Loading alone above 60% on all four models.
"""

from conftest import make_split, print_table

from repro.nn.models import build_model
from repro.train.policy_base import TrainingPolicy
from repro.train.trainer import Trainer, TrainerConfig

MODELS = ["resnet18", "resnet50", "alexnet", "vgg16"]


def _breakdown():
    split = make_split(n_samples=800, seed=0)
    train, test = split
    rows = []
    for name in MODELS:
        model = build_model(name, train.dim, train.num_classes, rng=1)
        res = Trainer(
            model, train, test, TrainingPolicy(rng=2),
            TrainerConfig(epochs=2, batch_size=64),
        ).run()
        st = res.stage_totals()
        total = res.total_time_s
        rows.append(
            (
                name,
                f"{st['data_load_s'] / total:.1%}",
                f"{st['compute_s'] / total:.1%}",
                f"{total:.2f}s",
            )
        )
    return rows


def test_fig3a_stage_breakdown(once, benchmark):
    rows = once(_breakdown)
    print_table(
        "Fig 3(a): stage-time breakdown (no cache, random sampling)",
        ["model", "data_load", "compute", "total(sim)"],
        rows,
    )
    benchmark.extra_info["rows"] = rows
    # Paper shape: data loading dominates (>60%) on every model.
    for name, load, compute, _ in rows:
        assert float(load.rstrip("%")) > 50.0, name
