"""Tests for the synthetic dataset generators and the benchmark registry."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    BENCHMARKS,
    Dataset,
    GLYPHS,
    build_model,
    glyph_strokes,
    jitter_transform,
    load_dataset,
    one_hot,
    render_glyph,
    render_strokes,
    synthetic_faces,
    synthetic_mnist,
    synthetic_svhn,
    synthetic_tich,
)
from repro.datasets.base import balanced_labels


class TestOneHot:
    def test_basic(self):
        encoded = one_hot(np.array([1, 0, 2]), 3)
        np.testing.assert_array_equal(
            encoded, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)


class TestDatasetContainer:
    def test_flat_views(self):
        data = synthetic_mnist(n_train=10, n_test=5, seed=0)
        assert data.flat_train.shape == (10, 1024)
        assert data.flat_test.shape == (5, 1024)

    def test_subset(self):
        data = synthetic_mnist(n_train=10, n_test=5, seed=0)
        small = data.subset(4, 2)
        assert len(small.x_train) == 4
        assert len(small.x_test) == 2
        np.testing.assert_array_equal(small.x_train, data.x_train[:4])

    def test_subset_too_large(self):
        data = synthetic_mnist(n_train=10, n_test=5, seed=0)
        with pytest.raises(ValueError):
            data.subset(100, 2)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            Dataset("broken", np.zeros((3, 1, 2, 2)), np.zeros(2),
                    np.zeros((1, 1, 2, 2)), np.zeros(1), 2)

    def test_balanced_labels(self):
        labels = balanced_labels(100, 10, np.random.default_rng(0))
        counts = np.bincount(labels, minlength=10)
        assert np.all(counts == 10)


class TestStrokeFont:
    def test_all_36_glyphs_defined(self):
        assert len(GLYPHS) == 36
        for char in "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ":
            assert glyph_strokes(char)

    def test_unknown_glyph(self):
        with pytest.raises(KeyError):
            glyph_strokes("@")

    def test_render_range_and_shape(self):
        rng = np.random.default_rng(0)
        image = render_glyph("7", rng, image_size=32)
        assert image.shape == (32, 32)
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert image.max() > 0.5  # something was drawn

    def test_render_deterministic_given_rng_state(self):
        a = render_glyph("3", np.random.default_rng(7))
        b = render_glyph("3", np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_render_strokes_validation(self):
        with pytest.raises(ValueError):
            render_strokes([[(0, 0), (1, 1)]], image_size=2)
        with pytest.raises(ValueError):
            render_strokes([[(0, 0), (1, 1)]], thickness=0.0)

    def test_point_stroke_draws_dot(self):
        image = render_strokes([[(0.5, 0.5), (0.5, 0.5)]], image_size=16,
                               thickness=0.1)
        assert image.max() > 0.9


def _render_strokes_golden(strokes, image_size=32, thickness=0.05,
                           transform=None):
    """Golden model of :func:`render_strokes`: the segment-at-a-time loop
    it replaced, one distance field per segment, max-accumulated."""
    grid = (np.arange(image_size) + 0.5) / image_size
    px, py = np.meshgrid(grid, grid, indexing="xy")
    image = np.zeros((image_size, image_size))
    soft = 1.5 / image_size
    for stroke in strokes:
        points = np.asarray(stroke, dtype=np.float64)
        if transform is not None:
            matrix, offset = transform
            points = (points - 0.5) @ matrix.T + 0.5 + offset
        for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
            dx, dy = x1 - x0, y1 - y0
            length_sq = dx * dx + dy * dy
            if length_sq < 1e-12:
                dist = np.hypot(px - x0, py - y0)
            else:
                t = ((px - x0) * dx + (py - y0) * dy) / length_sq
                t = np.clip(t, 0.0, 1.0)
                dist = np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))
            intensity = np.clip(1.0 - (dist - thickness / 2) / soft, 0.0, 1.0)
            np.maximum(image, intensity, out=image)
    return image


_COORD = st.floats(-0.25, 1.25, allow_nan=False)


@st.composite
def _stroke(draw):
    """A polyline of 1-6 points; a next point may repeat the previous one
    (a zero-length segment) or sit 1e-7 from it (below the 1e-12
    squared-length cut-off)."""
    points = [(draw(_COORD), draw(_COORD))]
    for _ in range(draw(st.integers(0, 5))):
        x, y = points[-1]
        step = draw(st.sampled_from(["new", "same", "tiny"]))
        if step == "same":
            points.append((x, y))
        elif step == "tiny":
            points.append((x + 1e-7, y - 1e-7))
        else:
            points.append((draw(_COORD), draw(_COORD)))
    return points


def _assert_same_bytes(strokes, **kwargs):
    image = render_strokes(strokes, **kwargs)
    golden = _render_strokes_golden(strokes, **kwargs)
    assert image.shape == golden.shape and image.dtype == golden.dtype
    assert image.tobytes() == golden.tobytes()
    return image


class TestRasteriserGoldenModel:
    """The batched rasteriser reproduces the per-segment loop byte for
    byte, so dataset bytes and every cache key built on them hold."""

    @settings(max_examples=150, deadline=None)
    @given(strokes=st.lists(_stroke(), max_size=4),
           image_size=st.integers(4, 40),
           thickness=st.floats(0.005, 0.2),
           jitter_seed=st.none() | st.integers(0, 2**32 - 1))
    def test_matches_golden_model(self, strokes, image_size, thickness,
                                  jitter_seed):
        transform = None if jitter_seed is None else \
            jitter_transform(np.random.default_rng(jitter_seed))
        _assert_same_bytes(strokes, image_size=image_size,
                           thickness=thickness, transform=transform)

    @pytest.mark.parametrize("char", sorted(GLYPHS))
    def test_every_glyph_jittered(self, char):
        transform = jitter_transform(np.random.default_rng(ord(char)))
        _assert_same_bytes(glyph_strokes(char), thickness=0.05,
                           transform=transform)

    @pytest.mark.parametrize("strokes", [[], [[]]])
    def test_empty_strokes(self, strokes):
        image = _assert_same_bytes(strokes, image_size=8)
        assert not image.any()

    def test_single_point_strokes_draw_nothing(self):
        image = _assert_same_bytes([[(0.5, 0.5)], [(0.2, 0.7)]],
                                   image_size=8)
        assert not image.any()

    def test_zero_length_segments(self):
        image = _assert_same_bytes([[(0.5, 0.5), (0.5, 0.5)],
                                    [(0.1, 0.1), (0.1, 0.1), (0.9, 0.2)]],
                                   image_size=16, thickness=0.1)
        assert image.max() > 0.9

    def test_result_is_a_fresh_writable_image(self):
        first = render_strokes([[(0.1, 0.1), (0.9, 0.9)]], image_size=8)
        first += 5.0
        second = render_strokes([[(0.1, 0.1), (0.9, 0.9)]], image_size=8)
        assert second.max() <= 1.0
        assert second.flags.writeable


# SHA-256 over (dtype, shape, bytes) of each split array, pinned when the
# rasteriser drew one segment at a time: synthesis must stay
# byte-identical, or every stage-cache entry and explore journal moves.
_DATASET_DIGESTS = [
    ("face", 0, "321d89e150ee39a6b6954bc90a366c85"
     "709143dd3fd37fe91320119ca9e032df"),
    ("face", 3, "7ac7693b9e0f84962aac405f05bb262e"
     "fb23e9efa29993a28e872205daf992d1"),
    ("mnist_cnn", 0, "3762a19ac05a48a4597bcaa59e925977"
     "e71eb03024d0b7a2c6f621b9428e2dd7"),
    ("mnist_cnn", 3, "c6dbe1036c0742dc5d442960c3489646"
     "8021fd49301864c953d1e587d53b8169"),
    ("mnist_mlp", 0, "3762a19ac05a48a4597bcaa59e925977"
     "e71eb03024d0b7a2c6f621b9428e2dd7"),
    ("mnist_mlp", 3, "c6dbe1036c0742dc5d442960c3489646"
     "8021fd49301864c953d1e587d53b8169"),
    ("svhn", 0, "8d4ce736c47722461f1d9f936ce7062d"
     "61be2de6d7a59e6f0eedf62226782bfe"),
    ("svhn", 3, "adb2f181419f5e896e4a5357b6bd5238"
     "07fc2503ed843cc0c15371c4b4478bb7"),
    ("tich", 0, "7c5827a952a59ac4ee6becd1a8d11893"
     "ae58f018feec1830bf12a590791c5bdd"),
    ("tich", 3, "5c7b787ac31de7dd19c82853cc30a9ce"
     "54936303ba6a603ee6380c4b1fbe0ea7"),
]


def _dataset_digest(data):
    digest = hashlib.sha256()
    for array in (data.x_train, data.y_train, data.x_test, data.y_test):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("key,seed,expected", _DATASET_DIGESTS,
                         ids=[f"{key}-{seed}"
                              for key, seed, _ in _DATASET_DIGESTS])
def test_load_dataset_bytes_pinned(key, seed, expected):
    data = load_dataset(key, n_train=12, n_test=6, seed=seed)
    assert _dataset_digest(data) == expected


@pytest.mark.parametrize("factory,n_classes", [
    (synthetic_mnist, 10),
    (synthetic_faces, 2),
    (synthetic_svhn, 10),
    (synthetic_tich, 36),
])
class TestGenerators:
    def test_shapes_and_classes(self, factory, n_classes):
        data = factory(n_train=n_classes * 2, n_test=n_classes, seed=0)
        assert data.n_classes == n_classes
        assert data.x_train.shape[1:] == (1, 32, 32)
        assert data.y_train.min() >= 0
        assert data.y_train.max() < n_classes

    def test_reproducible(self, factory, n_classes):
        a = factory(n_train=8, n_test=4, seed=5)
        b = factory(n_train=8, n_test=4, seed=5)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_seed_changes_data(self, factory, n_classes):
        a = factory(n_train=8, n_test=4, seed=1)
        b = factory(n_train=8, n_test=4, seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_pixel_range(self, factory, n_classes):
        data = factory(n_train=6, n_test=3, seed=0)
        assert data.x_train.min() >= 0.0
        assert data.x_train.max() <= 1.0

    def test_rejects_empty(self, factory, n_classes):
        with pytest.raises(ValueError):
            factory(n_train=0, n_test=1)


class TestDifficultyOrdering:
    """The substitution contract: faces < mnist < svhn in
    difficulty, measured by a small fixed-budget classifier."""

    @staticmethod
    def _probe_accuracy(data, seed=0):
        from repro.datasets import mlp
        from repro.nn import SGD, Trainer
        model = mlp([data.num_features, 48, data.n_classes], seed=seed)
        trainer = Trainer(model, SGD(model, 0.25), batch_size=32,
                          patience=2)
        history = trainer.fit(data.flat_train, data.y_train_onehot,
                              data.flat_test, data.y_test, max_epochs=8)
        return history.best_accuracy

    def test_svhn_harder_than_mnist(self):
        mnist = self._probe_accuracy(synthetic_mnist(600, 200, seed=0))
        svhn = self._probe_accuracy(synthetic_svhn(600, 200, seed=0))
        assert svhn < mnist

    def test_faces_accuracy_high(self):
        faces = self._probe_accuracy(synthetic_faces(600, 200, seed=0))
        assert faces > 0.85


class TestRegistry:
    def test_all_five_benchmarks(self):
        assert set(BENCHMARKS) == {"mnist_mlp", "mnist_cnn", "face",
                                   "svhn", "tich"}

    @pytest.mark.parametrize("key", list(BENCHMARKS))
    def test_table4_counts_exact(self, key):
        spec = BENCHMARKS[key]
        model = build_model(key)
        assert model.num_params == spec.table4_synapses
        assert model.num_neurons == spec.table4_neurons

    @pytest.mark.parametrize("key", list(BENCHMARKS))
    def test_table4_layer_counts(self, key):
        spec = BENCHMARKS[key]
        model = build_model(key)
        assert len(model.topology().layers) == spec.table4_layers

    def test_load_dataset_passes_counts(self):
        data = load_dataset("face", n_train=6, n_test=4, seed=3)
        assert len(data.x_train) == 6
        assert len(data.x_test) == 4

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            build_model("imagenet")
        with pytest.raises(KeyError):
            load_dataset("imagenet")

    def test_bits_assignment_matches_table4(self):
        assert BENCHMARKS["mnist_mlp"].bits == 8
        assert BENCHMARKS["mnist_cnn"].bits == 12
        assert BENCHMARKS["face"].bits == 12
        assert BENCHMARKS["svhn"].bits == 8
        assert BENCHMARKS["tich"].bits == 8
