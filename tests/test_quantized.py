"""Tests for the bit-accurate quantised/ASM inference engine."""

import numpy as np
import pytest

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4, FULL_ALPHABETS
from repro.asm.constraints import WeightConstrainer
from repro.asm.decompose import UnsupportedQuartetError
from repro.asm.multiplier import Multiplier
from repro.datasets import lenet, mlp, synthetic_mnist
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def trained_mlp():
    """A small trained MLP shared across the module's tests."""
    from repro.nn import SGD, Trainer
    data = synthetic_mnist(n_train=500, n_test=200, seed=0)
    model = mlp([1024, 40, 10], seed=1)
    trainer = Trainer(model, SGD(model, 0.3), batch_size=32, patience=2)
    trainer.fit(data.flat_train, data.y_train_onehot, data.flat_test,
                data.y_test, max_epochs=10)
    return model, data


class TestQuantizationSpec:
    def test_labels(self):
        assert QuantizationSpec(8).label == "8b-conventional"
        assert QuantizationSpec(8, Multiplier(ALPHA_2),
                                fallback="nearest").label == \
            "8b-asm2-nearest"
        c = WeightConstrainer(8, ALPHA_2)
        assert QuantizationSpec(8, Multiplier(ALPHA_2),
                                constrainer=c).label == \
            "8b-asm2-constrained"

    def test_constrainer_bits_mismatch(self):
        with pytest.raises(ValueError):
            QuantizationSpec(12, Multiplier(ALPHA_2),
                             constrainer=WeightConstrainer(8, ALPHA_2))

    def test_quantize_weights_range(self):
        spec = QuantizationSpec(8)
        weights = RNG.normal(scale=0.2, size=(30, 10))
        ints, fmt = spec.quantize_weights(weights)
        assert ints.max() <= 127 and ints.min() >= -128
        # dequantised weights close to the originals
        assert np.max(np.abs(ints * fmt.resolution - weights)) <= \
            fmt.resolution

    def test_constrained_weights_on_grid(self):
        c = WeightConstrainer(8, ALPHA_1)
        spec = QuantizationSpec(8, Multiplier(ALPHA_1), constrainer=c)
        ints, _ = spec.quantize_weights(RNG.normal(size=(50,)))
        assert all(c.is_representable(int(w)) for w in ints)

    def test_effective_remap_applied(self):
        spec = QuantizationSpec(8, Multiplier(ALPHA_2), fallback="nearest")
        # a weight value landing on 105 (R=9 unsupported) must be remapped
        fmt_scale = 105 / 128
        ints, fmt = spec.quantize_weights(np.array([fmt_scale, 127 / 128]))
        c = WeightConstrainer(8, ALPHA_2, mode="nearest")
        # the deployed weights must all be ASM-exact values
        from repro.asm.multiplier import AlphabetSetMultiplier
        m = AlphabetSetMultiplier(8, ALPHA_2, fallback="nearest")
        table = m.effective_weight_table()
        for w in ints:
            assert table[int(w) + 128] == w


class TestQuantizedAccuracy:
    def test_conventional_close_to_float(self, trained_mlp):
        model, data = trained_mlp
        float_acc = model.accuracy(data.flat_test, data.y_test)
        q8 = QuantizedNetwork.from_float(model, QuantizationSpec(8))
        q12 = QuantizedNetwork.from_float(model, QuantizationSpec(12))
        assert abs(q8.accuracy(data.flat_test, data.y_test)
                   - float_acc) < 0.05
        assert abs(q12.accuracy(data.flat_test, data.y_test)
                   - float_acc) < 0.03

    def test_full_alphabet_asm_equals_conventional(self, trained_mlp):
        """The 8-alphabet ASM is exact: identical predictions."""
        model, data = trained_mlp
        conv = QuantizedNetwork.from_float(model, QuantizationSpec(8))
        asm = QuantizedNetwork.from_float(
            model, QuantizationSpec(8, Multiplier(FULL_ALPHABETS),
                                    fallback="nearest"))
        np.testing.assert_array_equal(
            conv.predict(data.flat_test[:50]),
            asm.predict(data.flat_test[:50]))

    def test_error_policy_raises_without_constraining(self, trained_mlp):
        model, _ = trained_mlp
        with pytest.raises(UnsupportedQuartetError):
            # fallback="error": lowering unconstrained weights must fail
            QuantizedNetwork.from_float(
                model, QuantizationSpec(8, Multiplier(ALPHA_2)))

    def test_constrained_weights_run_under_error_policy(self, trained_mlp):
        model, data = trained_mlp
        c = WeightConstrainer(8, ALPHA_2)
        q = QuantizedNetwork.from_float(
            model, QuantizationSpec(8, Multiplier(ALPHA_2), constrainer=c))
        acc = q.accuracy(data.flat_test, data.y_test)
        assert acc > 0.3  # runs, and is far better than chance

    def test_lut_mode_close_to_float_sigmoid(self, trained_mlp):
        model, data = trained_mlp
        plain = QuantizedNetwork.from_float(model, QuantizationSpec(8))
        lut = QuantizedNetwork.from_float(model, QuantizationSpec(8),
                                          use_lut=True)
        a = plain.accuracy(data.flat_test, data.y_test)
        b = lut.accuracy(data.flat_test, data.y_test)
        assert abs(a - b) < 0.05

    def test_accuracy_length_check(self, trained_mlp):
        model, data = trained_mlp
        q = QuantizedNetwork.from_float(model, QuantizationSpec(8))
        with pytest.raises(ValueError):
            q.accuracy(data.flat_test[:3], data.y_test[:4])


class TestQuantizedCNN:
    def test_lenet_quantises_and_runs(self):
        net = lenet(seed=0)
        q = QuantizedNetwork.from_float(net, QuantizationSpec(12))
        x = RNG.uniform(0, 1, size=(3, 1, 32, 32))
        scores = q.forward(x)
        assert scores.shape == (3, 10)

    def test_lenet_man_deployment(self):
        net = lenet(seed=0)
        c = WeightConstrainer(12, ALPHA_1)
        q = QuantizedNetwork.from_float(
            net, QuantizationSpec(12, Multiplier(ALPHA_1), constrainer=c))
        x = RNG.uniform(0, 1, size=(2, 1, 32, 32))
        assert q.forward(x).shape == (2, 10)


class TestLayerSpecs:
    def test_mixed_specs_accepted(self, trained_mlp):
        model, data = trained_mlp
        c1 = WeightConstrainer(8, ALPHA_1)
        c4 = WeightConstrainer(8, ALPHA_4)
        specs = [QuantizationSpec(8, Multiplier(ALPHA_1), constrainer=c1),
                 QuantizationSpec(8, Multiplier(ALPHA_4), constrainer=c4)]
        q = QuantizedNetwork.from_float(model, QuantizationSpec(8),
                                        layer_specs=specs)
        assert 0.0 <= q.accuracy(data.flat_test, data.y_test) <= 1.0

    def test_wrong_spec_count(self, trained_mlp):
        model, _ = trained_mlp
        with pytest.raises(ValueError):
            QuantizedNetwork.from_float(
                model, QuantizationSpec(8),
                layer_specs=[QuantizationSpec(8)])

    def test_mixed_bits_rejected(self, trained_mlp):
        model, _ = trained_mlp
        with pytest.raises(ValueError):
            QuantizedNetwork.from_float(
                model, QuantizationSpec(8),
                layer_specs=[QuantizationSpec(8), QuantizationSpec(12)])


class TestKernelBackends:
    """The layer stack dispatches to repro.kernels; backends must be
    bit-identical on trained networks (the broad sweep lives in
    tests/test_kernels.py)."""

    def test_default_backend_is_reference(self, trained_mlp):
        model, _ = trained_mlp
        q = QuantizedNetwork.from_float(model, QuantizationSpec(8))
        assert q.backend == "reference"
        assert q.with_backend("auto").backend == "fast"

    def test_fast_bit_identical_on_trained_network(self, trained_mlp):
        model, data = trained_mlp
        c = WeightConstrainer(8, ALPHA_2)
        q = QuantizedNetwork.from_float(
            model, QuantizationSpec(8, Multiplier(ALPHA_2), constrainer=c))
        fast = q.with_backend("fast")
        np.testing.assert_array_equal(q.forward(data.flat_test),
                                      fast.forward(data.flat_test))
        assert q.accuracy(data.flat_test, data.y_test) == \
            fast.accuracy(data.flat_test, data.y_test)

    def test_with_backend_shares_layers(self, trained_mlp):
        model, _ = trained_mlp
        q = QuantizedNetwork.from_float(model, QuantizationSpec(8))
        fast = q.with_backend("fast")
        assert fast.layers is q.layers
        assert q.backend == "reference"  # original untouched

    def test_unknown_backend_rejected(self, trained_mlp):
        model, _ = trained_mlp
        from repro.kernels import KernelBackendError
        with pytest.raises(KernelBackendError):
            QuantizedNetwork.from_float(model, QuantizationSpec(8),
                                        backend="simd")

    def test_lut_backend_equivalence(self, trained_mlp):
        model, data = trained_mlp
        q = QuantizedNetwork.from_float(model, QuantizationSpec(8),
                                        use_lut=True)
        np.testing.assert_array_equal(
            q.forward(data.flat_test[:64]),
            q.with_backend("fast").forward(data.flat_test[:64]))


class TestBitWidthOrdering:
    def test_12bit_at_least_as_good_as_8bit_man(self, trained_mlp):
        """More weight bits → finer MAN grid → no worse accuracy (paper's
        §VI.E observation), modulo small-sample noise."""
        model, data = trained_mlp
        accs = {}
        for bits in (8, 12):
            c = WeightConstrainer(bits, ALPHA_1)
            q = QuantizedNetwork.from_float(
                model, QuantizationSpec(bits, Multiplier(ALPHA_1),
                                        constrainer=c))
            accs[bits] = q.accuracy(data.flat_test, data.y_test)
        assert accs[12] >= accs[8] - 0.05
