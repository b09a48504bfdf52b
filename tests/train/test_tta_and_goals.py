"""The imp-ratio accuracy/speed trade-off."""

from repro.core.policy import SpiderCachePolicy


# ----------------------------------------------------------------------
# The accuracy / speed trade-off of the imp-ratio and substitution knobs
# ----------------------------------------------------------------------
#: §6.5: "the Imp-Ratio is adjustable, allowing users to prioritize
#: accuracy with a higher ratio or speed with a lower one."
GOALS = {
    "accuracy": dict(r_start=0.9, r_end=0.9, elastic=False,
                     hom_neighbor_limit=8, hom_radius_scale=0.5),
    "speed": dict(r_start=0.9, r_end=0.5, elastic=True,
                  hom_neighbor_limit=32, hom_radius_scale=0.9),
}


def test_goals_end_to_end_tradeoff():
    """The speed settings yield a higher hit ratio than the accuracy ones."""
    from repro.data.synthetic import make_clustered_dataset, train_test_split
    from repro.nn.models import build_model
    from repro.train.trainer import Trainer, TrainerConfig

    ds = make_clustered_dataset(600, n_classes=6, dim=16, rng=0)
    train, test = train_test_split(ds, rng=1)
    results = {}
    for goal in ["accuracy", "speed"]:
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(rng=3, **GOALS[goal])
        results[goal] = Trainer(model, train, test, policy,
                                TrainerConfig(epochs=8, batch_size=64)).run()
    assert results["speed"].mean_hit_ratio > results["accuracy"].mean_hit_ratio
    assert results["speed"].total_time_s < results["accuracy"].total_time_s
