"""Neural-network layers with explicit forward/backward passes.

Each layer caches what it needs during ``forward`` and consumes it in
``backward``. Parameters and their gradients are exposed via ``params()``
so optimizers can update them generically. Convolution uses im2col so the
hot loop is a single GEMM (vectorize-first, per the HPC guides).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.init import he_init
from repro.utils.rng import RngLike

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Conv2d",
    "MaxPool2d",
    "BatchNorm1d",
    "Flatten",
    "Sequential",
]


class Layer:
    """Base layer: stateless by default, override to add parameters."""

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer output; ``training=True`` caches for backward."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; return the input gradient."""
        raise NotImplementedError

    def params(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """List of ``(param, grad)`` pairs; empty for stateless layers."""
        return []

    def zero_grad(self) -> None:
        """Reset accumulated gradients to zero."""
        for _, g in self.params():
            g.fill(0.0)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Live views of the layer's persistent arrays, keyed by name."""
        return {}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy matching arrays from ``state`` into this layer."""
        for k, v in self.state_dict().items():
            if k not in state:
                raise KeyError(f"missing key {k!r}")
            np.copyto(v, state[k])


class Linear(Layer):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: RngLike = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature sizes must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.W = he_init((in_features, out_features), in_features, rng)
        self.b = np.zeros(out_features)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected (n, {self.in_features}), got {x.shape}"
            )
        self._x = x if training else None
        return x @ self.W + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward")
        self.dW += self._x.T @ grad
        self.db += grad.sum(axis=0)
        return grad @ self.W.T

    def params(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [(self.W, self.dW), (self.b, self.db)]

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        mask = x > 0
        if training:
            self._mask = mask
        return np.where(mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward")
        return grad * self._mask


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold (n, c, h, w) into (n * oh * ow, c * kh * kw) patches."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    # Strided sliding-window view, then a single copy into patch matrix.
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Fold patch gradients back to input shape (adjoint of _im2col)."""
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                cols6[:, :, :, :, i, j]
            )
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


class Conv2d(Layer):
    """2-D convolution via im2col + GEMM. Input layout: (n, c, h, w)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        rng: RngLike = None,
    ) -> None:
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.W = he_init((fan_in, out_channels), fan_in, rng)
        self.b = np.zeros(out_channels)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...], int, int]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (n, {self.in_channels}, h, w), got {x.shape}"
            )
        cols, oh, ow = _im2col(x, self.kernel_size, self.kernel_size, self.stride, self.padding)
        out = cols @ self.W + self.b
        n = x.shape[0]
        if training:
            self._cache = (cols, x.shape, oh, ow)
        return out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward")
        cols, x_shape, oh, ow = self._cache
        n = x_shape[0]
        g = grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_channels)
        self.dW += cols.T @ g
        self.db += g.sum(axis=0)
        dcols = g @ self.W.T
        return _col2im(
            dcols, x_shape, self.kernel_size, self.kernel_size,
            self.stride, self.padding, oh, ow,
        )

    def params(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [(self.W, self.dW), (self.b, self.db)]

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}


class MaxPool2d(Layer):
    """Max pooling over non-overlapping square windows (stride = window)."""

    def __init__(self, kernel_size: int = 2) -> None:
        self.kernel_size = kernel_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...], int, int]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k = s = self.kernel_size
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        st = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, oh, ow, k, k),
            strides=(st[0], st[1], st[2] * s, st[3] * s, st[2], st[3]),
            writeable=False,
        )
        flat = view.reshape(n, c, oh, ow, k * k)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        if training:
            self._cache = (arg, x.shape, oh, ow)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward")
        arg, x_shape, oh, ow = self._cache
        n, c, h, w = x_shape
        k = s = self.kernel_size
        dx = np.zeros(x_shape)
        # Scatter each output gradient to its argmax position.
        oi, oj = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
        base_i = oi * s
        base_j = oj * s
        di = arg // k
        dj = arg % k
        rows = base_i[None, None] + di
        cols = base_j[None, None] + dj
        nn_idx = np.arange(n)[:, None, None, None]
        cc_idx = np.arange(c)[None, :, None, None]
        np.add.at(dx, (nn_idx, cc_idx, rows, cols), grad)
        return dx


#: Running-statistics decay and variance floor of :class:`BatchNorm1d`.
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


class BatchNorm1d(Layer):
    """Batch normalization over feature vectors (n, d)."""

    def __init__(self, num_features: int) -> None:
        self.gamma = np.ones(num_features)
        self.beta = np.zeros(num_features)
        self.dgamma = np.zeros(num_features)
        self.dbeta = np.zeros(num_features)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (x - mean) * inv_std
        if training:
            self._cache = (x_hat, inv_std, x - mean)
        return self.gamma * x_hat + self.beta

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward")
        x_hat, inv_std, _ = self._cache
        n = grad.shape[0]
        self.dgamma += (grad * x_hat).sum(axis=0)
        self.dbeta += grad.sum(axis=0)
        dxhat = grad * self.gamma
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=0) - x_hat * (dxhat * x_hat).sum(axis=0)
        )

    def params(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [(self.gamma, self.dgamma), (self.beta, self.dbeta)]

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {
            "gamma": self.gamma,
            "beta": self.beta,
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def __init__(self) -> None:
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a training forward")
        return grad.reshape(self._shape)


class Sequential(Layer):
    """Layer container executing children in order."""

    def __init__(self, *layers: Layer) -> None:
        self.layers: List[Layer] = list(layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def append(self, layer: Layer) -> None:
        """Add a layer to the end of the container."""
        self.layers.append(layer)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def state_dict(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for k, v in layer.state_dict().items():
                out[f"{i}.{k}"] = v
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            sub = {
                k.split(".", 1)[1]: v
                for k, v in state.items()
                if k.startswith(f"{i}.")
            }
            if sub:
                layer.load_state_dict(sub)
