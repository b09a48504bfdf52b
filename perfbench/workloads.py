"""The four workloads: what each one runs, at what size, and why.

Sizes are calibrated so one ``run()`` lasts about :data:`RUN_SECONDS`
on the 2-core reference host with BLAS pinned to one thread. ``--seconds``
rescales **epochs only** (``n`` never changes, so every index keeps the
size that makes its layer dominate); the run is fixed work, not a
deadline, so the sim-clock metrics repeat exactly per seed.

The builders import ``repro`` lazily: the scheduling parent reads the
sizes without paying for NumPy, and the workload subprocess pays for the
imports inside its timed set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

#: ``run_seconds`` in BENCHMARK.json; ``epochs`` below are sized for it.
RUN_SECONDS = 20

#: Fraction of each dataset held out for validation.
TEST_FRACTION = 0.25

#: Output-check floor for ``ann.neighbor_recall`` (``train_hnsw``).
RECALL_FLOOR = 0.95

#: Output-check ceiling for ``train.unattributed_share`` (traced pass).
UNATTRIBUTED_CEILING = 0.10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``n_samples`` counts the whole dataset (the training split is 75 % of
    it). ``epochs`` is the size at :data:`RUN_SECONDS`; ``min_epochs`` is
    what the workload needs for its mechanism to run at all. The
    ``quick_*`` sizes drive the self-test (same code, seconds in total).
    ``accuracy_floor`` is an output check at the full size, deliberately a
    floor and not a golden digest, so a later behaviour fix is not blocked
    by a pinned number.
    """

    name: str
    why: str
    dataset: str
    n_samples: int
    model: str
    batch_size: int
    cache_fraction: float
    epochs: int
    quick_samples: int
    quick_epochs: int
    accuracy_floor: float
    backend: str = "exact"
    sharded: bool = False
    observed: bool = False
    min_epochs: int = 1

    def epochs_for(self, seconds: float, quick: bool = False) -> int:
        """Epoch count for a ``--seconds`` budget (fixed in quick mode)."""
        if quick:
            return self.quick_epochs
        return max(self.min_epochs, round(self.epochs * seconds / RUN_SECONDS))

    def samples_for(self, quick: bool = False) -> int:
        """Dataset size: never rescaled, except by the self-test."""
        return self.quick_samples if quick else self.n_samples


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_exact",
            why="Default exact-backend path at the largest preset: brute-force "
                "ann range queries dominate; bypass workload for HNSW, RPC and "
                "tracing work (predicted no change).",
            dataset="imagenet-like", n_samples=20_000, model="resnet50",
            batch_size=128, cache_fraction=0.2,
            epochs=5, quick_samples=800, quick_epochs=2,
            accuracy_floor=0.70,
        ),
        Workload(
            name="train_hnsw",
            why="The paper's HNSW path (sec. 4.1): index update and range query "
                "on one graph are ~99 % of wall, reported as separate rows; "
                "mechanism workload for ANN work.",
            dataset="cifar10-like", n_samples=3_000, model="resnet18",
            batch_size=64, cache_fraction=0.2, backend="hnsw",
            # Epoch 1 mostly inserts; re-insertion of already-indexed
            # samples (the update path) starts in epoch 2.
            epochs=2, min_epochs=2, quick_samples=240, quick_epochs=2,
            accuracy_floor=0.75,
        ),
        Workload(
            name="train_sharded",
            why="The data-parallel epoch loop over the sharded cache on real "
                "pipes (2 shard workers): ~1 RPC per sample, dist ~half of "
                "wall; mechanism workload for multi-key RPC / policy-core work.",
            dataset="cifar10-like", n_samples=3_000, model="resnet18",
            batch_size=64, cache_fraction=0.5, sharded=True,
            epochs=55, quick_samples=400, quick_epochs=3,
            accuracy_floor=0.80,
        ),
        Workload(
            name="train_traced",
            why="Small index with the program's full observability on (JSONL "
                "recorder, metrics, spans): per-sample Python and obs dominate; "
                "the only workload where obs does any work.",
            dataset="cifar10-like", n_samples=2_000, model="resnet18",
            batch_size=64, cache_fraction=0.2, observed=True,
            epochs=120, quick_samples=400, quick_epochs=3,
            accuracy_floor=0.80,
        ),
    )
}


@dataclass
class Replica:
    """One model replica and what feeds it (one per data-parallel rank)."""

    loader: Any
    model: Any
    optimizer: Any


@dataclass
class Stack:
    """A built workload: the trainer plus the instances the benchmark
    reads counters from and (traced pass only) wraps."""

    trainer: Any
    policy: Any
    store: Any
    replicas: List[Replica]
    n_train: int
    epochs: int
    t_data: float  # perf_counter() when the dataset and split were ready
    observer: Optional[Any] = None

    @property
    def client(self) -> Optional[Any]:
        """The sharded cache client, if this workload has one."""
        cache = self.policy.cache
        return cache if hasattr(cache, "transport") else None

    def close(self) -> None:
        """Stop the shard workers and close the program's trace file."""
        close = getattr(self.trainer, "close", None)
        if close is not None:
            close()
        if self.observer is not None:
            self.observer.close()


def build(
    w: Workload,
    seed: int,
    epochs: int,
    n_samples: int,
    trace_path: Optional[str] = None,
) -> Stack:
    """Build ``w``'s full stack, ready for ``stack.trainer.run()``.

    Dataset, split, model, policy, trainer and HNSW level draws are seeded
    ``seed .. seed+5``. ``trace_path`` switches the program's own
    observability on (``w.observed`` workloads pass one; their untraced
    twins for ``obs.overhead_ratio`` pass ``None``).
    """
    import time

    from repro.core.policy import SpiderCachePolicy
    from repro.data.registry import make_dataset
    from repro.data.synthetic import train_test_split
    from repro.nn.models import build_model
    from repro.train.trainer import TrainerConfig

    data = make_dataset(w.dataset, rng=seed, n_samples=n_samples)
    train, test = train_test_split(data, TEST_FRACTION, rng=seed + 1)
    t_data = time.perf_counter()

    def make_model():
        return build_model(w.model, train.dim, train.num_classes, rng=seed + 2)

    def make_policy(rank: int = 0):
        return SpiderCachePolicy(
            cache_fraction=w.cache_fraction, backend=w.backend, rng=seed + 3
        )

    observer = None
    if trace_path is not None:
        from repro.obs import JsonlRecorder, MetricsRegistry, Observer

        observer = Observer(
            JsonlRecorder(trace_path), MetricsRegistry(), span_seed=seed
        )

    if w.sharded:
        from repro.train.data_parallel import DataParallelTrainer

        trainer = DataParallelTrainer(
            make_model, train, test, make_policy,
            world_size=2,
            config=TrainerConfig(
                epochs=epochs, batch_size=w.batch_size, clock_mode="real",
                shared_cache=True, cache_shards=2, rpc_deadline_s=1.0,
            ),
            observer=observer,
            rng=seed + 4,
        )
        first = trainer.workers[0]
        policy, store = first.policy, first.store
        replicas = [
            Replica(wk.loader, wk.model, wk.optimizer) for wk in trainer.workers
        ]
    else:
        from repro.train.trainer import Trainer

        policy = make_policy()
        trainer = Trainer(
            make_model(), train, test, policy,
            TrainerConfig(epochs=epochs, batch_size=w.batch_size),
            rng=seed + 4,
            observer=observer,
        )
        store = trainer.store
        replicas = [Replica(trainer.loader, trainer.model, trainer.optimizer)]

    if w.backend == "hnsw":
        # src/ builds the HNSW index with rng=None (core/graph_is.py), so
        # its level draws are unseeded; pin them through the public
        # attribute until that is fixed in src/.
        from repro.ann.hnsw import HNSWIndex

        policy.scorer.index = HNSWIndex(
            replicas[0].model.embedding_dim, capacity=len(train), rng=seed + 5
        )

    return Stack(
        trainer=trainer, policy=policy, store=store, replicas=replicas,
        n_train=len(train), epochs=epochs, t_data=t_data, observer=observer,
    )
