"""Pure-NumPy DNN training substrate.

Replaces the paper's PyTorch stack (see DESIGN.md substitution table). The
caching study needs three things from the model: per-sample losses,
penultimate-layer embeddings, and genuine learning dynamics — all provided
by these hand-rolled layers with explicit forward/backward passes.
"""

from repro.nn.init import he_init
from repro.nn.layers import (
    BatchNorm1d,
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.models import MODEL_ZOO, Model, ModelSpec, build_model
from repro.nn.optim import SGD, ConstantLR, CosineLR

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Conv2d",
    "MaxPool2d",
    "BatchNorm1d",
    "Flatten",
    "Sequential",
    "SoftmaxCrossEntropy",
    "SGD",
    "ConstantLR",
    "CosineLR",
    "he_init",
    "Model",
    "ModelSpec",
    "MODEL_ZOO",
    "build_model",
]
