"""Vector stroke font and rasteriser for the synthetic datasets.

Glyphs are polylines in the unit square (x right, y down).  The rasteriser
draws them onto a pixel grid with anti-aliasing, after a random affine
jitter (rotation, scale, shear, translation) that mimics handwriting
variation.  All randomness flows through an explicit generator, so every
dataset in :mod:`repro.datasets` is reproducible from its seed.

The synthesisers work through a split :data:`RENDER_CHUNK` samples at a
time, in three steps: *draw* every random number of the chunk's samples,
in the order a sample-at-a-time loop would draw them; *render* all the
chunk's jobs in one :func:`render_batch` call; *compose* (occlusion,
background, contrast, noise, clip) in place.  Rendering consumes no random
numbers, so rendering after the chunk's draws leaves the generator's
stream, and with it every dataset byte, the same as rendering each sample
between its own draws.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from repro import obs

__all__ = ["GLYPHS", "glyph_strokes", "glyph_points", "jitter_transform",
           "draw_glyph", "render_batch", "render_strokes", "render_glyph",
           "RENDER_CHUNK", "Job"]

#: One render job: ``(strokes, thickness, transform)``; strokes are
#: polylines of ``(x, y)`` points, the transform an optional affine
#: ``(matrix, offset)`` from :func:`jitter_transform`.
Job = tuple[Sequence, float, "tuple[np.ndarray, np.ndarray] | None"]

#: Samples a synthesiser draws, renders and composes per step: enough to
#: amortise the per-call cost, few enough to keep buffers chunk-sized.
RENDER_CHUNK = 64

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


@functools.lru_cache(maxsize=None)
def glyph_points(char: str) -> tuple[np.ndarray, ...]:
    """Strokes of *char* as read-only ``(points, 2)`` float arrays, built
    once per glyph (what :func:`render_batch` would convert them to)."""
    strokes = tuple(np.array(stroke, dtype=np.float64)
                    for stroke in glyph_strokes(char))
    for stroke in strokes:
        stroke.flags.writeable = False
    return strokes


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


# Pixels per tile side.  A (segment, tile) pair is evaluated only when the
# tile can hold ink of the segment, so the work scales with ink, not with
# segments x canvas.
_TILE = 4
# Largest distance, in pixels, from a tile's centre to one of its pixel
# centres, plus a quarter pixel of margin (float rounding is ~1e-15 px).
_TILE_RADIUS = (_TILE - 1) / math.sqrt(2) + 0.25
# Largest transformed coordinate magnitude the rasteriser accepts.
_MAX_COORD = 1e100
# Pairs shaded per pass: keeps the float temporaries cache-sized.
_BLOCK = 2048


@functools.lru_cache(maxsize=None)
def _tile_grid(image_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only pixel-centre ``(xs, ys)``, built once per size: row ``i``
    holds the x (or y) coordinate of each of the ``_TILE**2`` pixels of
    tile column (or row) ``i``, in row-major order within the tile.  The
    last tile runs past the canvas when the size is not a multiple of
    ``_TILE``; those pixels are cropped after rendering."""
    tiles = -(-image_size // _TILE)
    grid = ((np.arange(tiles * _TILE) + 0.5) / image_size).reshape(
        tiles, _TILE)
    xs = np.tile(grid, _TILE)
    ys = np.repeat(grid, _TILE, axis=1)
    xs.flags.writeable = False
    ys.flags.writeable = False
    return xs, ys


def _tile_span(low: np.ndarray, high: np.ndarray,
               image_size: int) -> tuple[np.ndarray, np.ndarray]:
    """First tile and tile count covering pixel centres in ``[low, high]``
    (unit coordinates) grown by one pixel; count 0 when off the canvas."""
    first = np.floor(low * image_size - 0.5) - 1
    last = np.ceil(high * image_size - 0.5) + 1
    on_canvas = (last >= 0) & (first <= image_size - 1)
    first = np.clip(first, 0, image_size - 1).astype(np.int64) // _TILE
    last = np.clip(last, 0, image_size - 1).astype(np.int64) // _TILE
    return first, np.where(on_canvas, last - first + 1, 0)


def render_batch(jobs: Sequence[Job], image_size: int = 32) -> np.ndarray:
    """Rasterise ``(strokes, thickness, transform)`` jobs into a fresh
    ``(len(jobs), image_size, image_size)`` float stack.

    Pixel intensity is an anti-aliased distance field: 1 on the stroke
    centre line, fading to 0 one softening width (``1.5 / image_size``)
    past the stroke edge.  A job's image is the pixelwise maximum over its
    segments.

    The canvas is cut into 4x4-pixel tiles, and a (segment, tile) pair is
    evaluated only when the tile meets the segment's bounding box grown by
    its reach ``thickness/2 + 1.5/image_size`` plus one pixel, and the
    tile's centre lies within the reach plus the tile's half-diagonal.
    Beyond the reach a pixel's intensity clips to exactly +0.0, and the
    margins absorb rounding of the closest point, so every skipped pixel
    holds the value a full-grid evaluation would give it.  Each evaluated
    element goes through the same float ops as a segment-at-a-time loop
    over the whole grid, and the tiles are max-scattered into the stack
    (max is exact and order-free), so the bytes match that loop.

    Rendering draws no random numbers: callers draw every job's jitter
    first and render a whole chunk in one call without moving the stream.
    Non-finite coordinates, transforms or thicknesses raise ``ValueError``
    (a NaN reach box would otherwise drop ink without a trace), and so do
    coordinates beyond ``1e100``, whose squares could overflow.
    """
    if image_size < 4:
        raise ValueError("image too small to draw on")
    thickness = np.array([job[1] for job in jobs], dtype=np.float64)
    if not (thickness > 0).all():
        raise ValueError("thickness must be positive")
    if not np.isfinite(thickness).all():
        raise ValueError("thickness must be finite")
    x0, y0, x1, y1, owner = _segments(jobs)
    dx, dy = x1 - x0, y1 - y0
    length_sq = dx * dx + dy * dy
    soft = 1.5 / image_size
    half = thickness[owner] / 2
    reach = half + soft
    col0, cols = _tile_span(np.minimum(x0, x1) - reach,
                            np.maximum(x0, x1) + reach, image_size)
    row0, rows = _tile_span(np.minimum(y0, y1) - reach,
                            np.maximum(y0, y1) + reach, image_size)
    # enumerate the (segment, tile) pairs of each reach box
    per_segment = cols * rows
    seg = np.repeat(np.arange(len(owner)), per_segment)
    local = np.arange(len(seg)) - np.repeat(
        np.cumsum(per_segment) - per_segment, per_segment)
    tile_x = col0[seg] + local % cols[seg]
    tile_y = row0[seg] + local // cols[seg]
    # ... and keep those whose tile centre lies within the reach plus the
    # tile's half-diagonal (and margin): no pixel of the others is inked
    centre_dist = _distance((tile_x * _TILE + _TILE / 2) / image_size,
                            (tile_y * _TILE + _TILE / 2) / image_size,
                            *(v[seg] for v in (x0, y0, dx, dy, length_sq)))
    near = centre_dist <= reach[seg] + _TILE_RADIUS / image_size
    seg, tile_x, tile_y = seg[near], tile_x[near], tile_y[near]
    pairs = len(seg)
    if obs.enabled():
        registry = obs.registry()
        registry.counter("datasets.render.segments").inc(len(owner))
        registry.counter("datasets.render.tile_pairs").inc(pairs)
    tiles_x, tiles_y = _tile_grid(image_size)
    padded = len(tiles_x) * _TILE
    out = np.zeros((len(jobs), padded, padded))
    # flat index in ``out`` of each pair's pixels (a pair's row of
    # _TILE**2 pixels is row-major within its tile)
    corner = (owner[seg] * padded + tile_y * _TILE) * padded + tile_x * _TILE
    within = (np.arange(_TILE)[:, np.newaxis] * padded
              + np.arange(_TILE)).ravel()
    for start in range(0, pairs, _BLOCK):
        block = slice(start, start + _BLOCK)
        rows_seg = seg[block]
        # intensity = clip(1 - (dist - half) / soft, 0, 1), in place
        shade = _distance(tiles_x[tile_x[block]], tiles_y[tile_y[block]],
                          *(v[rows_seg][:, np.newaxis]
                            for v in (x0, y0, dx, dy, length_sq)))
        shade -= half[rows_seg][:, np.newaxis]
        shade /= soft
        np.subtract(1.0, shade, out=shade)
        np.clip(shade, 0.0, 1.0, out=shade)
        np.maximum.at(out.reshape(-1),
                      (corner[block][:, np.newaxis] + within).ravel(),
                      shade.ravel())
    return np.ascontiguousarray(out[:, :image_size, :image_size])


def _segments(jobs: Sequence[Job]) -> tuple[np.ndarray, ...]:
    """``(x0, y0, x1, y1, owner)`` of every segment of every job, after
    each job's transform; ``owner`` is the job index."""
    points, owners, counts = [np.empty((0, 2))], [], []
    for index, (strokes, _, transform) in enumerate(jobs):
        for stroke in strokes:
            stroke_points = np.asarray(stroke, dtype=np.float64).reshape(-1, 2)
            if transform is not None:
                matrix, offset = transform
                stroke_points = (stroke_points - 0.5) @ matrix.T + 0.5 + offset
            points.append(stroke_points)
            owners.append(index)
            counts.append(len(stroke_points))
    points = np.concatenate(points)
    # NaN fails the comparison; the bound keeps every square and product
    # of the distance field finite, which the culling proof relies on
    if not (np.abs(points) <= _MAX_COORD).all():
        raise ValueError(
            "stroke coordinates and transforms must be finite, with "
            f"|x|, |y| <= {_MAX_COORD:g} after the transform")
    # a segment joins consecutive points of one stroke
    stroke_of = np.repeat(np.arange(len(counts)), counts)
    inner = stroke_of[:-1] == stroke_of[1:]
    x0, y0 = points[:-1][inner].T
    x1, y1 = points[1:][inner].T
    owner = np.asarray(owners, dtype=np.int64)[stroke_of[:-1][inner]]
    return x0, y0, x1, y1, owner


def _distance(px, py, x0, y0, dx, dy, length_sq) -> np.ndarray:
    """Distance from pixels ``(px, py)`` to segments ``(x0, y0) + t (dx,
    dy)``, ``t`` in [0, 1], with the float ops of the per-segment
    full-grid loop, in its order; arguments broadcast together.  (Sums
    are formed in place, and IEEE addition commutes, so ``t*dx + x0`` is
    ``x0 + t*dx`` to the bit.)"""
    t = (px - x0) * dx
    t += (py - y0) * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t /= length_sq
    np.clip(t, 0.0, 1.0, out=t)
    dots = length_sq < 1e-12
    if dots.any():
        # a zero-length segment is a dot: t = 0 makes x0 + t*dx exactly
        # x0, so its distance is hypot(px - x0, py - y0) to the last bit
        t = np.where(dots, 0.0, t)
    off_x = t * dx
    off_x += x0
    np.subtract(px, off_x, out=off_x)
    t *= dy
    t += y0
    np.subtract(py, t, out=t)
    return np.hypot(off_x, t, out=off_x)


def render_strokes(strokes: list[list[tuple[float, float]]],
                   image_size: int = 32,
                   thickness: float = 0.05,
                   transform: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> np.ndarray:
    """Rasterise polylines into an ``(image_size, image_size)`` float image
    (a one-job :func:`render_batch`)."""
    return render_batch([(strokes, thickness, transform)], image_size)[0]


def draw_glyph(char: str, rng: np.random.Generator,
               thickness_range: tuple[float, float] = (0.035, 0.07),
               **jitter_kwargs) -> Job:
    """Draw one jittered glyph's :func:`render_batch` job from *rng*:
    the affine jitter first, then the thickness."""
    transform = jitter_transform(rng, **jitter_kwargs)
    return glyph_points(char), rng.uniform(*thickness_range), transform


def render_glyph(char: str, rng: np.random.Generator,
                 image_size: int = 32,
                 thickness_range: tuple[float, float] = (0.035, 0.07),
                 **jitter_kwargs) -> np.ndarray:
    """Draw and render one jittered glyph."""
    job = draw_glyph(char, rng, thickness_range, **jitter_kwargs)
    return render_batch([job], image_size)[0]
