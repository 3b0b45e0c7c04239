"""Synthetic MNIST stand-in: clean handwritten-style digits.

The paper's 'Digit Recognition' benchmarks use MNIST padded to 32x32 (the
1024-input MLP of Table IV).  This generator renders the ten digit glyphs
with handwriting jitter and mild pixel noise — an *easy* task, matching
MNIST's role in the paper as the dataset on which ASM-constrained networks
lose almost nothing.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset, balanced_labels
from repro.datasets.strokefont import RENDER_CHUNK, draw_glyph, render_batch

__all__ = ["synthetic_mnist"]

_DIGITS = "0123456789"


def _draw_bar(size: int, rng: np.random.Generator) -> tuple[slice, slice]:
    """Draw a random horizontal or vertical bar to blank, as an index."""
    width = int(rng.integers(2, max(3, size // 5)))
    start = int(rng.integers(0, size - width))
    if rng.uniform() < 0.5:
        return np.s_[:, start:start + width]
    return np.s_[start:start + width, :]


def _render_split(n: int, image_size: int, noise: float, jitter: float,
                  occlusion: float, rng: np.random.Generator,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Synthesise one split, :data:`RENDER_CHUNK` samples at a time.

    Per chunk: draw every sample's random numbers in the per-sample order
    (glyph jitter, thickness, occlusion bar, noise), the noise straight
    into the output rows; render the chunk's glyphs in one call; then
    blank the bars, add the ink to the noise and clip.  Rendering draws
    nothing, so the stream, and with it every byte, is the same as
    rendering each sample between its draws.
    """
    labels = balanced_labels(n, len(_DIGITS), rng)
    images = np.empty((n, 1, image_size, image_size))
    for start in range(0, n, RENDER_CHUNK):
        rows = images[start:start + RENDER_CHUNK, 0]
        jobs, bars = [], []
        for row, label in zip(rows, labels[start:start + RENDER_CHUNK]):
            jobs.append(draw_glyph(
                _DIGITS[label], rng, thickness_range=(0.03, 0.075),
                rotation_deg=10.0 + 12.0 * jitter,
                scale_range=(0.8 - 0.25 * jitter, 1.1 + 0.1 * jitter),
                shear=0.15 + 0.2 * jitter,
                translate=0.06 + 0.08 * jitter))
            bars.append(_draw_bar(image_size, rng)
                        if rng.uniform() < occlusion else None)
            row[...] = rng.normal(0.0, noise, size=row.shape)
        ink = render_batch(jobs, image_size)
        for image, bar in zip(ink, bars):
            if bar is not None:
                image[bar] = 0.0
        rows += ink
        np.clip(rows, 0.0, 1.0, out=rows)
    return images, labels


def synthetic_mnist(n_train: int = 2000, n_test: int = 500,
                    image_size: int = 32, noise: float = 0.10,
                    jitter: float = 0.55, occlusion: float = 0.25,
                    seed: int = 0) -> Dataset:
    """Build the digit-recognition dataset.

    ``jitter`` (0 = clean print, 1 = wild handwriting) scales the affine
    distortion; ``occlusion`` is the probability of a blanked bar crossing
    the glyph.  The defaults are tuned so the Table IV MLP lands near the
    paper's MNIST accuracy (~97%) instead of saturating.

    >>> data = synthetic_mnist(n_train=20, n_test=10, seed=1)
    >>> data.x_train.shape
    (20, 1, 32, 32)
    >>> data.n_classes
    10
    """
    if n_train < 1 or n_test < 1:
        raise ValueError("need at least one sample per split")
    if not 0 <= jitter <= 1:
        raise ValueError(f"jitter must be in [0, 1], got {jitter}")
    rng = np.random.default_rng(seed)
    x_train, y_train = _render_split(n_train, image_size, noise, jitter,
                                     occlusion, rng)
    x_test, y_test = _render_split(n_test, image_size, noise, jitter,
                                   occlusion, rng)
    return Dataset("synthetic-mnist", x_train, y_train, x_test, y_test,
                   n_classes=len(_DIGITS))
