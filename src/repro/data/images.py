"""Procedural image dataset for the CNN models.

Each class gets a smooth low-frequency template (a random mixture of 2-D
sinusoids); samples are shifted, noised copies. This gives the CNN path a
real image-classification task without shipping datasets: classes are
separable, but noise/shift levels create genuinely hard samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.rng import RngLike, resolve_rng

__all__ = ["ProceduralImageDataset", "make_image_dataset"]

#: Colour channels per image.
CHANNELS = 1
#: Largest circular shift of a sample off its class template, in pixels.
MAX_SHIFT = 2


@dataclass
class ProceduralImageDataset:
    """Images of shape ``(n, c, h, w)`` with integer labels."""

    name: str
    X: np.ndarray
    y: np.ndarray
    templates: np.ndarray  # (num_classes, c, h, w)
    item_nbytes: int = 3 * 1024

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return tuple(self.X.shape[1:])  # type: ignore[return-value]

    @property
    def num_classes(self) -> int:
        return self.templates.shape[0]


def _class_template(
    c: int, h: int, w: int, gen: np.random.Generator, n_waves: int = 4
) -> np.ndarray:
    """Random smooth template: sum of low-frequency 2-D sinusoids."""
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    template = np.zeros((c, h, w))
    for ch in range(c):
        img = np.zeros((h, w))
        for _ in range(n_waves):
            fy, fx = gen.uniform(0.5, 3.0, size=2)
            phase = gen.uniform(0, 2 * np.pi)
            amp = gen.uniform(0.5, 1.0)
            img += amp * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
        template[ch] = img / n_waves
    return template


def make_image_dataset(
    n_samples: int,
    n_classes: int = 10,
    image_size: int = 12,
    noise_std: float = 0.35,
    rng: RngLike = None,
) -> ProceduralImageDataset:
    """Generate ``n_samples`` images from per-class templates.

    Each sample is its class template circularly shifted by up to
    :data:`MAX_SHIFT` pixels plus Gaussian pixel noise.
    """
    if image_size < 4:
        raise ValueError("image_size must be >= 4")
    gen = resolve_rng(rng)
    templates = np.stack(
        [_class_template(CHANNELS, image_size, image_size, gen) for _ in range(n_classes)]
    )
    labels = np.tile(np.arange(n_classes), n_samples // n_classes + 1)[:n_samples]
    gen.shuffle(labels)
    X = np.empty((n_samples, CHANNELS, image_size, image_size))
    shifts = gen.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(n_samples, 2))
    noise = gen.normal(0.0, noise_std, size=X.shape)
    for i in range(n_samples):
        img = templates[labels[i]]
        img = np.roll(img, shift=(int(shifts[i, 0]), int(shifts[i, 1])), axis=(1, 2))
        X[i] = img + noise[i]
    return ProceduralImageDataset(
        name="proc-images",
        X=X,
        y=labels.astype(np.int64),
        templates=templates,
        item_nbytes=CHANNELS * image_size * image_size * 8,
    )
