"""Dataset substrate.

Stands in for CIFAR-10/100 and ImageNet (see DESIGN.md). The synthetic
generator realizes exactly the sample taxonomy the paper's Fig. 8 builds the
IS algorithm around: well-classified core points, boundary points, isolated
points, and mislabeled points, in controllable proportions.
"""

from repro.data.images import ProceduralImageDataset, make_image_dataset
from repro.data.loader import Batch, DataLoader
from repro.data.registry import DATASET_PRESETS, make_dataset
from repro.data.synthetic import (
    KIND_BOUNDARY,
    KIND_ISOLATED,
    KIND_MISLABELED,
    KIND_WELL,
    SyntheticDataset,
    make_clustered_dataset,
    train_test_split,
)

__all__ = [
    "SyntheticDataset",
    "make_clustered_dataset",
    "train_test_split",
    "ProceduralImageDataset",
    "make_image_dataset",
    "DATASET_PRESETS",
    "make_dataset",
    "DataLoader",
    "Batch",
    "KIND_WELL",
    "KIND_BOUNDARY",
    "KIND_ISOLATED",
    "KIND_MISLABELED",
]
