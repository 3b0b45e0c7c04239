"""Vector stroke font and rasteriser for the synthetic datasets.

Glyphs are polylines in the unit square (x right, y down).  The rasteriser
draws them onto a pixel grid with anti-aliasing, after a random affine
jitter (rotation, scale, shear, translation) that mimics handwriting
variation.  All randomness flows through an explicit generator, so every
dataset in :mod:`repro.datasets` is reproducible from its seed.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["GLYPHS", "glyph_strokes", "render_glyph", "render_strokes",
           "jitter_transform"]

# --------------------------------------------------------------------------
# glyph definitions: dict of char -> list of polylines [(x, y), ...]
# --------------------------------------------------------------------------
GLYPHS: dict[str, list[list[tuple[float, float]]]] = {
    "0": [[(0.5, 0.08), (0.82, 0.25), (0.82, 0.75), (0.5, 0.92),
           (0.18, 0.75), (0.18, 0.25), (0.5, 0.08)]],
    "1": [[(0.35, 0.25), (0.55, 0.08), (0.55, 0.92)],
          [(0.3, 0.92), (0.8, 0.92)]],
    "2": [[(0.2, 0.25), (0.5, 0.08), (0.8, 0.25), (0.78, 0.45),
           (0.2, 0.92), (0.82, 0.92)]],
    "3": [[(0.2, 0.15), (0.6, 0.08), (0.8, 0.25), (0.55, 0.48),
           (0.8, 0.7), (0.6, 0.92), (0.2, 0.85)]],
    "4": [[(0.65, 0.92), (0.65, 0.08), (0.18, 0.65), (0.85, 0.65)]],
    "5": [[(0.8, 0.08), (0.25, 0.08), (0.22, 0.45), (0.6, 0.42),
           (0.82, 0.65), (0.6, 0.92), (0.2, 0.85)]],
    "6": [[(0.7, 0.08), (0.3, 0.35), (0.2, 0.65), (0.4, 0.92),
           (0.75, 0.85), (0.8, 0.6), (0.5, 0.5), (0.25, 0.6)]],
    "7": [[(0.18, 0.08), (0.82, 0.08), (0.45, 0.92)]],
    "8": [[(0.5, 0.08), (0.75, 0.2), (0.68, 0.42), (0.5, 0.5),
           (0.32, 0.42), (0.25, 0.2), (0.5, 0.08)],
          [(0.5, 0.5), (0.78, 0.65), (0.7, 0.88), (0.5, 0.92),
           (0.3, 0.88), (0.22, 0.65), (0.5, 0.5)]],
    "9": [[(0.75, 0.45), (0.45, 0.52), (0.22, 0.35), (0.35, 0.1),
           (0.68, 0.08), (0.78, 0.3), (0.72, 0.65), (0.4, 0.92)]],
    "A": [[(0.15, 0.92), (0.5, 0.08), (0.85, 0.92)],
          [(0.3, 0.62), (0.7, 0.62)]],
    "B": [[(0.2, 0.92), (0.2, 0.08), (0.65, 0.1), (0.75, 0.28),
           (0.6, 0.48), (0.2, 0.5)],
          [(0.6, 0.48), (0.8, 0.68), (0.68, 0.9), (0.2, 0.92)]],
    "C": [[(0.8, 0.2), (0.55, 0.06), (0.25, 0.2), (0.16, 0.5),
           (0.25, 0.8), (0.55, 0.94), (0.8, 0.8)]],
    "D": [[(0.2, 0.08), (0.2, 0.92), (0.6, 0.9), (0.8, 0.68),
           (0.82, 0.35), (0.62, 0.1), (0.2, 0.08)]],
    "E": [[(0.78, 0.08), (0.2, 0.08), (0.2, 0.92), (0.78, 0.92)],
          [(0.2, 0.5), (0.65, 0.5)]],
    "F": [[(0.78, 0.08), (0.2, 0.08), (0.2, 0.92)],
          [(0.2, 0.5), (0.65, 0.5)]],
    "G": [[(0.8, 0.2), (0.55, 0.06), (0.25, 0.2), (0.16, 0.5),
           (0.25, 0.8), (0.55, 0.94), (0.8, 0.85), (0.82, 0.58),
           (0.55, 0.58)]],
    "H": [[(0.2, 0.08), (0.2, 0.92)], [(0.8, 0.08), (0.8, 0.92)],
          [(0.2, 0.5), (0.8, 0.5)]],
    "I": [[(0.3, 0.08), (0.7, 0.08)], [(0.5, 0.08), (0.5, 0.92)],
          [(0.3, 0.92), (0.7, 0.92)]],
    "J": [[(0.4, 0.08), (0.8, 0.08)], [(0.65, 0.08), (0.65, 0.75),
           (0.5, 0.92), (0.25, 0.85)]],
    "K": [[(0.2, 0.08), (0.2, 0.92)], [(0.78, 0.08), (0.22, 0.55)],
          [(0.45, 0.45), (0.8, 0.92)]],
    "L": [[(0.25, 0.08), (0.25, 0.92), (0.8, 0.92)]],
    "M": [[(0.15, 0.92), (0.18, 0.08), (0.5, 0.6), (0.82, 0.08),
           (0.85, 0.92)]],
    "N": [[(0.2, 0.92), (0.2, 0.08), (0.8, 0.92), (0.8, 0.08)]],
    "O": [[(0.5, 0.06), (0.8, 0.25), (0.85, 0.5), (0.8, 0.75),
           (0.5, 0.94), (0.2, 0.75), (0.15, 0.5), (0.2, 0.25),
           (0.5, 0.06)]],
    "P": [[(0.2, 0.92), (0.2, 0.08), (0.65, 0.1), (0.8, 0.3),
           (0.65, 0.52), (0.2, 0.54)]],
    "Q": [[(0.5, 0.06), (0.8, 0.25), (0.85, 0.5), (0.8, 0.75),
           (0.5, 0.94), (0.2, 0.75), (0.15, 0.5), (0.2, 0.25),
           (0.5, 0.06)],
          [(0.6, 0.7), (0.88, 0.95)]],
    "R": [[(0.2, 0.92), (0.2, 0.08), (0.65, 0.1), (0.8, 0.3),
           (0.65, 0.52), (0.2, 0.54)],
          [(0.5, 0.54), (0.82, 0.92)]],
    "S": [[(0.78, 0.18), (0.5, 0.06), (0.25, 0.2), (0.3, 0.42),
           (0.7, 0.55), (0.78, 0.78), (0.5, 0.94), (0.22, 0.82)]],
    "T": [[(0.15, 0.08), (0.85, 0.08)], [(0.5, 0.08), (0.5, 0.92)]],
    "U": [[(0.2, 0.08), (0.2, 0.7), (0.4, 0.92), (0.6, 0.92),
           (0.8, 0.7), (0.8, 0.08)]],
    "V": [[(0.15, 0.08), (0.5, 0.92), (0.85, 0.08)]],
    "W": [[(0.12, 0.08), (0.3, 0.92), (0.5, 0.4), (0.7, 0.92),
           (0.88, 0.08)]],
    "X": [[(0.18, 0.08), (0.82, 0.92)], [(0.82, 0.08), (0.18, 0.92)]],
    "Y": [[(0.15, 0.08), (0.5, 0.5), (0.85, 0.08)],
          [(0.5, 0.5), (0.5, 0.92)]],
    "Z": [[(0.18, 0.08), (0.82, 0.08), (0.18, 0.92), (0.82, 0.92)]],
}


def glyph_strokes(char: str) -> list[list[tuple[float, float]]]:
    """Strokes of *char*; raises KeyError with the available set listed."""
    try:
        return GLYPHS[char]
    except KeyError:
        raise KeyError(
            f"no glyph for {char!r}; available: {''.join(sorted(GLYPHS))}"
        ) from None


def jitter_transform(rng: np.random.Generator,
                     rotation_deg: float = 10.0,
                     scale_range: tuple[float, float] = (0.8, 1.1),
                     shear: float = 0.15,
                     translate: float = 0.06) -> tuple[np.ndarray, np.ndarray]:
    """Random affine ``(matrix, offset)`` applied to glyph coordinates."""
    angle = np.deg2rad(rng.uniform(-rotation_deg, rotation_deg))
    scale = rng.uniform(*scale_range)
    shear_x = rng.uniform(-shear, shear)
    cos, sin = np.cos(angle), np.sin(angle)
    matrix = scale * np.array([[cos, -sin], [sin, cos]]) \
        @ np.array([[1.0, shear_x], [0.0, 1.0]])
    offset = rng.uniform(-translate, translate, size=2)
    return matrix, offset


@functools.lru_cache(maxsize=None)
def _pixel_grid(image_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(px, py)`` pixel-centre coordinates, built once per size."""
    grid = (np.arange(image_size) + 0.5) / image_size
    px, py = np.meshgrid(grid, grid, indexing="xy")
    px.flags.writeable = False
    py.flags.writeable = False
    return px, py


def render_strokes(strokes: list[list[tuple[float, float]]],
                   image_size: int = 32,
                   thickness: float = 0.05,
                   transform: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> np.ndarray:
    """Rasterise polylines into an ``(image_size, image_size)`` float image.

    Pixel intensity is an anti-aliased distance field: 1 on the stroke
    centre line, fading to 0 one softening width away.  All segments of
    all strokes are evaluated as one ``(segments, H, W)`` stack over a
    pixel grid cached per size, and the image is their pixelwise
    maximum; every element goes through the same float ops as a
    segment-at-a-time loop, so the bytes match it.
    """
    if image_size < 4:
        raise ValueError("image too small to draw on")
    if thickness <= 0:
        raise ValueError("thickness must be positive")
    segments = [np.empty((0, 4))]
    for stroke in strokes:
        points = np.asarray(stroke, dtype=np.float64)
        if transform is not None:
            matrix, offset = transform
            points = (points - 0.5) @ matrix.T + 0.5 + offset
        points = points.reshape(-1, 2)
        segments.append(np.concatenate([points[:-1], points[1:]], axis=1))
    ends = np.concatenate(segments)
    if not len(ends):
        return np.zeros((image_size, image_size))
    x0, y0, x1, y1 = ends.T[:, :, np.newaxis, np.newaxis]
    px, py = _pixel_grid(image_size)
    dx, dy = x1 - x0, y1 - y0
    length_sq = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - x0) * dx + (py - y0) * dy) / length_sq
    # a zero-length segment is a dot: t = 0 makes x0 + t*dx exactly x0,
    # so its distance is hypot(px - x0, py - y0) to the last bit
    t = np.where(length_sq < 1e-12, 0.0, np.clip(t, 0.0, 1.0))
    dist = np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))
    soft = 1.5 / image_size
    intensity = np.clip(1.0 - (dist - thickness / 2) / soft, 0.0, 1.0)
    return intensity.max(axis=0)


def render_glyph(char: str, rng: np.random.Generator,
                 image_size: int = 32,
                 thickness_range: tuple[float, float] = (0.035, 0.07),
                 **jitter_kwargs) -> np.ndarray:
    """Draw one jittered glyph; the main entry point for the datasets."""
    strokes = glyph_strokes(char)
    transform = jitter_transform(rng, **jitter_kwargs)
    thickness = rng.uniform(*thickness_range)
    return render_strokes(strokes, image_size=image_size,
                          thickness=thickness, transform=transform)
