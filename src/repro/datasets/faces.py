"""Synthetic face-detection stand-in for the paper's YUV Faces benchmark.

Two classes: *face* patches (elliptical head outline, two eyes, nose hint,
mouth bar — all jittered) and *non-face* patches (random strokes and blobs
with similar overall ink statistics, so the classifier must use structure,
not brightness).  The paper's network is a 1024-100-2 MLP (§IV.C) reaching
~90% accuracy — an intentionally imperfect task, which the generator mirrors
by making some non-faces face-like.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.datasets.strokefont import RENDER_CHUNK, render_batch

__all__ = ["synthetic_faces"]


def _ellipse(cx: float, cy: float, rx: float, ry: float,
             points: int = 14) -> list[tuple[float, float]]:
    angles = np.linspace(0.0, 2 * np.pi, points)
    return [(cx + rx * np.cos(a), cy + ry * np.sin(a)) for a in angles]


def _face_strokes(rng: np.random.Generator) -> list[list[tuple[float, float]]]:
    cx = 0.5 + rng.uniform(-0.05, 0.05)
    cy = 0.5 + rng.uniform(-0.05, 0.05)
    rx = rng.uniform(0.26, 0.34)
    ry = rng.uniform(0.32, 0.4)
    eye_dx = rng.uniform(0.1, 0.15)
    eye_y = cy - ry * rng.uniform(0.25, 0.4)
    eye_r = rng.uniform(0.02, 0.04)
    mouth_y = cy + ry * rng.uniform(0.35, 0.55)
    mouth_w = rng.uniform(0.1, 0.18)
    strokes = [
        _ellipse(cx, cy, rx, ry),
        _ellipse(cx - eye_dx, eye_y, eye_r, eye_r, points=7),
        _ellipse(cx + eye_dx, eye_y, eye_r, eye_r, points=7),
        [(cx - mouth_w, mouth_y), (cx + mouth_w, mouth_y * 1.01)],
    ]
    if rng.uniform() < 0.7:  # nose hint
        strokes.append([(cx, eye_y + 0.08), (cx - 0.03, mouth_y - 0.1)])
    return strokes


def _nonface_strokes(rng: np.random.Generator,
                     ) -> list[list[tuple[float, float]]]:
    strokes = []
    # random blobs and arcs with roughly face-like ink budget
    for _ in range(rng.integers(2, 5)):
        if rng.uniform() < 0.5:
            cx, cy = rng.uniform(0.2, 0.8, size=2)
            strokes.append(_ellipse(cx, cy, rng.uniform(0.05, 0.3),
                                    rng.uniform(0.05, 0.3),
                                    points=rng.integers(5, 12)))
        else:
            points = rng.uniform(0.1, 0.9, size=(rng.integers(2, 5), 2))
            strokes.append([tuple(p) for p in points])
    return strokes


def synthetic_faces(n_train: int = 2000, n_test: int = 500,
                    image_size: int = 32, noise: float = 0.08,
                    seed: int = 0) -> Dataset:
    """Build the face/non-face dataset (classes: 0 = non-face, 1 = face)."""
    if n_train < 1 or n_test < 1:
        raise ValueError("need at least one sample per split")
    rng = np.random.default_rng(seed)

    def split(n: int) -> tuple[np.ndarray, np.ndarray]:
        # draw -> render -> compose per chunk, as digits._render_split
        labels = (np.arange(n) % 2)
        rng.shuffle(labels)
        images = np.empty((n, 1, image_size, image_size))
        for start in range(0, n, RENDER_CHUNK):
            rows = images[start:start + RENDER_CHUNK, 0]
            jobs = []
            for row, label in zip(rows, labels[start:start + RENDER_CHUNK]):
                strokes = (_face_strokes(rng) if label
                           else _nonface_strokes(rng))
                jobs.append((strokes, rng.uniform(0.03, 0.06), None))
                row[...] = rng.normal(0.0, noise, size=row.shape)
            rows += render_batch(jobs, image_size)
            np.clip(rows, 0.0, 1.0, out=rows)
        return images, labels

    x_train, y_train = split(n_train)
    x_test, y_test = split(n_test)
    return Dataset("synthetic-faces", x_train, y_train, x_test, y_test,
                   n_classes=2)
