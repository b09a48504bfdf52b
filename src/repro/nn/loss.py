"""Loss functions with per-sample outputs.

Per-sample losses matter here: SHADE's loss-rank importance sampling and
iCache's compute-bound IS (paper §3) both consume the *vector* of sample
losses, not just the batch mean.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SoftmaxCrossEntropy", "softmax"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class SoftmaxCrossEntropy:
    """Fused softmax + categorical cross-entropy.

    ``forward`` returns per-sample losses; ``backward`` returns the gradient
    w.r.t. logits (already averaged over the batch so optimizer steps are
    batch-size-invariant).
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-sample cross-entropy losses, shape ``(n,)``."""
        logits = np.atleast_2d(logits)
        targets = np.asarray(targets, dtype=np.int64).ravel()
        if logits.shape[0] != targets.shape[0]:
            raise ValueError("batch size mismatch between logits and targets")
        if targets.min(initial=0) < 0 or targets.max(initial=0) >= logits.shape[1]:
            raise ValueError("target labels out of range")
        probs = softmax(logits)
        self._probs = probs
        self._targets = targets
        picked = probs[np.arange(len(targets)), targets]
        return -np.log(np.clip(picked, 1e-12, None))

    def backward(self) -> np.ndarray:
        """Gradient of the *mean* loss w.r.t. logits."""
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._targets] -= 1.0
        grad /= n
        return grad

    @staticmethod
    def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
        """Top-1 accuracy in [0, 1]."""
        preds = np.argmax(np.atleast_2d(logits), axis=1)
        targets = np.asarray(targets).ravel()
        return float(np.mean(preds == targets))
