"""Training loop, policies, timing pipeline, data-parallel topology."""

from repro.train.data_parallel import DataParallelTrainer, WorkerState
from repro.train.metrics import EpochMetrics, TrainResult
from repro.train.pipeline import PipelineSimulator, StageCostModel
from repro.train.policy_base import PolicyContext, TrainingPolicy
from repro.train.trainer import Trainer, TrainerConfig

__all__ = [
    "TrainingPolicy",
    "PolicyContext",
    "Trainer",
    "TrainerConfig",
    "DataParallelTrainer",
    "WorkerState",
    "EpochMetrics",
    "TrainResult",
    "StageCostModel",
    "PipelineSimulator",
]
