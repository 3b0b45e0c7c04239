"""Seeded synthetic stand-ins for the paper's four datasets.

The substitution rationale: the paper's claims are
relative (constrained vs unconstrained training on the same data), and the
generators preserve the difficulty ordering faces < MNIST < TICH < SVHN.
"""

from repro.datasets.base import Dataset, one_hot
from repro.datasets.digits import synthetic_mnist
from repro.datasets.faces import synthetic_faces
from repro.datasets.registry import (
    BENCHMARKS,
    BenchmarkSpec,
    build_model,
    lenet,
    load_dataset,
    mlp,
)
from repro.datasets.strokefont import (
    GLYPHS,
    glyph_strokes,
    jitter_transform,
    render_batch,
    render_glyph,
    render_strokes,
)
from repro.datasets.svhn import synthetic_svhn
from repro.datasets.tich import TICH_CLASSES, synthetic_tich

__all__ = [
    "Dataset", "one_hot",
    "synthetic_mnist", "synthetic_faces", "synthetic_svhn",
    "synthetic_tich", "TICH_CLASSES",
    "BENCHMARKS", "BenchmarkSpec", "build_model", "load_dataset",
    "mlp", "lenet",
    "GLYPHS", "glyph_strokes", "jitter_transform", "render_glyph",
    "render_strokes", "render_batch",
]
