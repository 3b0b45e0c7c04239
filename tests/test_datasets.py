"""Tests for the synthetic dataset generators and the benchmark registry."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.datasets import (
    BENCHMARKS,
    Dataset,
    GLYPHS,
    build_model,
    glyph_strokes,
    jitter_transform,
    load_dataset,
    one_hot,
    render_batch,
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


@st.composite
def _job(draw):
    """One render job: 0-4 strokes (so ragged segment counts and empty
    jobs), shifted off the canvas now and then, any thickness, with or
    without jitter."""
    strokes = draw(st.lists(_stroke(), max_size=4))
    shift = draw(st.sampled_from([0.0, 0.0, 0.0, -1.5, 1.5, 6.0]))
    strokes = [[(x + shift, y - shift / 2) for x, y in stroke]
               for stroke in strokes]
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    transform = None if seed is None else \
        jitter_transform(np.random.default_rng(seed))
    return strokes, draw(st.floats(0.005, 0.2)), transform


class TestRenderBatch:
    """One batch of jobs renders, byte for byte, the stack of per-job
    golden images: tile culling skips only pixels the loop leaves at +0.0,
    and jobs never bleed into each other."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), count=st.integers(0, 70),
           image_size=st.integers(4, 40))
    def test_matches_stacked_golden_images(self, data, count, image_size):
        jobs = data.draw(st.lists(_job(), min_size=count, max_size=count))
        images = render_batch(jobs, image_size)
        golden = np.zeros((len(jobs), image_size, image_size))
        for index, (strokes, thickness, transform) in enumerate(jobs):
            golden[index] = _render_strokes_golden(
                strokes, image_size, thickness, transform)
        assert images.shape == golden.shape and images.dtype == golden.dtype
        assert images.tobytes() == golden.tobytes()

    def test_no_jobs(self):
        assert render_batch([], 8).shape == (0, 8, 8)

    def test_counters_only_while_tracing(self):
        obs.reset()
        jobs = [(glyph_strokes("8"), 0.05, None)] * 3
        render_batch(jobs, 32)
        assert not obs.registry().to_dict()
        obs.enable()
        try:
            render_batch(jobs, 32)
            counts = {row["name"]: row["value"]
                      for row in obs.registry().to_dict()}
        finally:
            obs.reset()
        assert counts["datasets.render.segments"] == 3 * 12
        # culling: far fewer pairs than segments x 64 tiles
        assert 0 < counts["datasets.render.tile_pairs"] < 3 * 12 * 64 / 2


class TestRasteriserRejectsNonFinite:
    """A NaN reach box would cull a stroke's ink silently, so non-finite
    inputs are refused up front."""

    STROKE = [[(0.2, 0.2), (0.8, 0.7)]]
    IDENTITY = (np.eye(2), np.zeros(2))

    @pytest.mark.parametrize("point", [(np.nan, 0.5), (0.5, np.inf),
                                       (-np.inf, 0.2)])
    def test_coordinates(self, point):
        with pytest.raises(ValueError, match="finite"):
            render_strokes([[(0.1, 0.1), point]])
        with pytest.raises(ValueError, match="finite"):
            render_batch([(self.STROKE, 0.05, None), ([[point]], 0.05, None)])

    def test_coordinates_too_large_to_square(self):
        # 1e200 squared overflows to inf, and inf/inf is a NaN reach
        with pytest.raises(ValueError, match="finite"):
            render_strokes([[(0.1, 0.1), (1e200, 0.5)]])

    @pytest.mark.parametrize("transform", [
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.zeros(2)),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros(2)),
        (np.eye(2), np.array([0.0, np.nan])),
        (np.eye(2), np.array([np.inf, 0.0])),
    ])
    def test_transforms(self, transform):
        with pytest.raises(ValueError, match="finite"):
            render_strokes(self.STROKE, transform=transform)

    @pytest.mark.parametrize("thickness", [np.nan, np.inf, -np.inf, 0.0,
                                           -0.01])
    def test_thickness(self, thickness):
        with pytest.raises(ValueError, match="thickness"):
            render_strokes(self.STROKE, thickness=thickness)
        with pytest.raises(ValueError, match="thickness"):
            render_batch([(self.STROKE, 0.05, self.IDENTITY),
                          ([], thickness, None)])


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


# Chunk and tile edges: split sizes around the 64-sample render chunk and
# canvases that are not a multiple of the 4-pixel tile (svhn's texture
# needs a multiple of 4, so it takes 20).  Pinned with the per-sample
# rasteriser, before synthesis was chunked.
_EDGE_DIGESTS = [
    ("mnist", 1, 63, 32, 1, "c2298e4b204f1c8e78defe748e521a78"
     "5264ed420986785a95c3882e83c09839"),
    ("mnist", 64, 65, 32, 2, "252373d896721e6fe04c367b2419fd22"
     "5aac41f2d82a9cf68a7676b673814c48"),
    ("mnist", 129, 1, 32, 3, "673fafe792a019c25fecda6bb0011129"
     "43adb9b8c19909ff2b76c23252c8f9ac"),
    ("mnist", 65, 64, 30, 4, "1998c308af8b2ecff1ec09c479cd4220"
     "a6762ca19a48201d9d9f5597d09ffa3a"),
    ("tich", 1, 63, 32, 1, "e0d362d5111adce16d699feb40d4781b"
     "f371ae0aaa0986c3654969a4c21eeadd"),
    ("tich", 64, 65, 32, 2, "3bf39e86b4589936f17938b905ded882"
     "8dcd22774f0e871934d6be582b7081b2"),
    ("tich", 129, 1, 32, 3, "93b063b22e92b028d7203ba8cacbfa57"
     "477bfafe9e67c2ec4e46c42ce788dcd0"),
    ("tich", 65, 64, 21, 4, "3f866fb8b9807742a730572f702894f9"
     "01218d7ac18c1765d1ac32adfb370aaf"),
    ("faces", 1, 63, 32, 1, "f76e2075fbbdf987e750395325a14c9b"
     "1664ae5eaacff48e20fc45b1c118bff4"),
    ("faces", 64, 65, 32, 2, "0e0c6cb9220ea9513d61f19f88f2aedc"
     "15c5d28e8f6bcac6425928c4f52c7c4e"),
    ("faces", 129, 1, 32, 3, "1d462447c78319598a30677cd7f34541"
     "5637d53cf03d54205e36cdc094240cc9"),
    ("faces", 65, 64, 26, 4, "2d388287deec18c5e57d4dc3355bbcdb"
     "539d678be2b639a021b5e73e3482be2c"),
    ("svhn", 1, 63, 32, 1, "c9819de2792d5c1d4129cf704148f366"
     "7b040976458c45e1e10e5608a8adbf77"),
    ("svhn", 64, 65, 32, 2, "41381e90141b77010050f35cd61fea80"
     "911bdb43a9a974e8a87a0156d217a2be"),
    ("svhn", 129, 1, 32, 3, "6da5c7485bbf62f8fc97844dfeb24eaf"
     "3f47581cb9fbfe5b066ea847a60413d2"),
    ("svhn", 65, 64, 20, 4, "f5f7eae2991ce4eac7bf145cab13ef99"
     "9d81471731c55df0b3b7c6407f2c880e"),
]

_SYNTHESISERS = {"mnist": synthetic_mnist, "tich": synthetic_tich,
                 "faces": synthetic_faces, "svhn": synthetic_svhn}


@pytest.mark.parametrize(
    "name,n_train,n_test,image_size,seed,expected", _EDGE_DIGESTS,
    ids=[f"{name}-{n_train}-{n_test}-{size}"
         for name, n_train, n_test, size, _, _ in _EDGE_DIGESTS])
def test_chunk_and_tile_edges_pinned(name, n_train, n_test, image_size,
                                     seed, expected):
    data = _SYNTHESISERS[name](n_train=n_train, n_test=n_test,
                               image_size=image_size, seed=seed)
    assert data.x_train.shape == (n_train, 1, image_size, image_size)
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


@pytest.mark.parametrize("image_size", [30, 2, 0, -4])
def test_svhn_rejects_sizes_off_the_texture_grid(image_size):
    with pytest.raises(ValueError, match="multiple of 4"):
        synthetic_svhn(n_train=1, n_test=1, image_size=image_size)


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
