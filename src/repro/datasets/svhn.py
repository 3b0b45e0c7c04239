"""Synthetic SVHN stand-in: digits over street-scene clutter.

SVHN is the paper's *hard* benchmark — house-number crops with distractor
digits, varying contrast and heavy background structure.  The generator
reproduces those difficulty drivers: a textured background gradient,
fragments of neighbouring digits at the image borders, contrast jitter and
strong noise.  Accuracy of the same MLP drops well below the clean-digit
dataset, preserving the paper's 'complex datasets degrade more under ASM'
observation (Fig. 7).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.datasets.base import Dataset, balanced_labels
from repro.datasets.strokefont import (
    RENDER_CHUNK,
    Job,
    glyph_points,
    jitter_transform,
    render_batch,
)

__all__ = ["synthetic_svhn"]

_DIGITS = "0123456789"


@functools.lru_cache(maxsize=None)
def _unit_grid(image_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(gx, gy)`` over [0, 1]^2, built once per size."""
    grid = np.linspace(0.0, 1.0, image_size)
    gx, gy = np.meshgrid(grid, grid, indexing="xy")
    gx.flags.writeable = False
    gy.flags.writeable = False
    return gx, gy


def _background(rng: np.random.Generator, out: np.ndarray) -> None:
    """Low-frequency intensity gradient plus blocky texture, into *out*."""
    image_size = out.shape[0]
    gx, gy = _unit_grid(image_size)
    direction = rng.uniform(0, 2 * np.pi)
    gradient = 0.5 + 0.5 * (np.cos(direction) * gx + np.sin(direction) * gy)
    level = rng.uniform(0.1, 0.45)
    coarse = rng.normal(0.0, 0.25, size=(4, 4))
    cell = image_size // 4
    texture = coarse.repeat(cell, axis=0).repeat(cell, axis=1)
    np.clip(level * gradient + 0.15 * texture, 0.0, 1.0, out=out)


def _draw_distractor(size: int, rng: np.random.Generator,
                     ) -> tuple[Job, tuple[int, int, float]]:
    """Draw a fragment of a random digit for a border: its render job and
    how to paste it, ``(shift, axis, strength)``."""
    char = _DIGITS[rng.integers(10)]
    job = (glyph_points(char), rng.uniform(0.03, 0.06), jitter_transform(rng))
    shift = rng.integers(size // 2, size - size // 4)
    axis = rng.integers(2)
    sign = 1 if rng.uniform() < 0.5 else -1
    return job, (sign * shift, axis, rng.uniform(0.4, 0.9))


def synthetic_svhn(n_train: int = 2000, n_test: int = 500,
                   image_size: int = 32, noise: float = 0.12,
                   seed: int = 0) -> Dataset:
    """Build the house-number dataset (10 classes, cluttered)."""
    if n_train < 1 or n_test < 1:
        raise ValueError("need at least one sample per split")
    if image_size < 4 or image_size % 4:
        # the background texture tiles a 4x4 grid of equal cells
        raise ValueError(f"image_size must be a positive multiple of 4, "
                         f"got {image_size}")
    rng = np.random.default_rng(seed)

    def split(n: int) -> tuple[np.ndarray, np.ndarray]:
        # draw -> render -> compose per chunk, as digits._render_split:
        # backgrounds wait in a chunk buffer, noise in the output rows
        labels = balanced_labels(n, 10, rng)
        images = np.empty((n, 1, image_size, image_size))
        for start in range(0, n, RENDER_CHUNK):
            rows = images[start:start + RENDER_CHUNK, 0]
            backgrounds = np.empty_like(rows)
            jobs, pastes, contrasts = [], [], []
            for row, background, label in zip(
                    rows, backgrounds, labels[start:start + RENDER_CHUNK]):
                _background(rng, background)
                paste = None
                if rng.uniform() < 0.8:
                    job, paste = _draw_distractor(image_size, rng)
                    jobs.append(job)
                pastes.append(paste)
                jobs.append((glyph_points(_DIGITS[label]),
                             rng.uniform(0.04, 0.08),
                             jitter_transform(rng, rotation_deg=14,
                                              translate=0.1)))
                contrasts.append(rng.uniform(0.55, 1.0))
                row[...] = rng.normal(0.0, noise, size=row.shape)
            ink = iter(render_batch(jobs, image_size))
            for background, paste, contrast in zip(backgrounds, pastes,
                                                   contrasts):
                if paste is not None:
                    shift, axis, strength = paste
                    fragment = np.roll(next(ink), shift, axis=axis)
                    np.maximum(background, fragment * strength,
                               out=background)
                np.maximum(background, next(ink) * contrast, out=background)
            rows += backgrounds
            np.clip(rows, 0.0, 1.0, out=rows)
        return images, labels

    x_train, y_train = split(n_train)
    x_test, y_test = split(n_test)
    return Dataset("synthetic-svhn", x_train, y_train, x_test, y_test,
                   n_classes=10)
