"""Synthetic TICH stand-in: handwritten characters, 36 classes.

TICH (the Tilburg character set) contains handwritten digits and letters.
The generator renders all 36 glyphs (0-9, A-Z) with *stronger* handwriting
jitter than the MNIST stand-in — more rotation, shear and thickness
variation plus moderate noise — landing its difficulty between clean digits
and cluttered SVHN, as in the paper's Fig. 7 ordering.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset, balanced_labels
from repro.datasets.strokefont import RENDER_CHUNK, draw_glyph, render_batch

__all__ = ["synthetic_tich"]

TICH_CLASSES = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def synthetic_tich(n_train: int = 3600, n_test: int = 720,
                   image_size: int = 32, noise: float = 0.08,
                   seed: int = 0) -> Dataset:
    """Build the 36-class character dataset."""
    if n_train < 1 or n_test < 1:
        raise ValueError("need at least one sample per split")
    rng = np.random.default_rng(seed)

    def split(n: int) -> tuple[np.ndarray, np.ndarray]:
        # draw -> render -> compose per chunk, as digits._render_split
        labels = balanced_labels(n, len(TICH_CLASSES), rng)
        images = np.empty((n, 1, image_size, image_size))
        for start in range(0, n, RENDER_CHUNK):
            rows = images[start:start + RENDER_CHUNK, 0]
            jobs = []
            for row, label in zip(rows, labels[start:start + RENDER_CHUNK]):
                jobs.append(draw_glyph(
                    TICH_CLASSES[label], rng, thickness_range=(0.03, 0.08),
                    rotation_deg=16.0, scale_range=(0.7, 1.15),
                    shear=0.25, translate=0.08))
                row[...] = rng.normal(0.0, noise, size=row.shape)
            rows += render_batch(jobs, image_size)
            np.clip(rows, 0.0, 1.0, out=rows)
        return images, labels

    x_train, y_train = split(n_train)
    x_test, y_test = split(n_test)
    return Dataset("synthetic-tich", x_train, y_train, x_test, y_test,
                   n_classes=len(TICH_CLASSES))
