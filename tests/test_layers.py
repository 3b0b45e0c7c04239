"""Tests for layers: shapes, gradients (finite differences), LeNet counts."""

import numpy as np
import pytest

from repro.kernels.conv_utils import col2im, conv_output_size, im2col
from repro.nn.layers import Conv2D, Dense, Flatten, ScaledAvgPool2D

RNG = np.random.default_rng(42)


def numeric_gradient(layer, x, param_key, epsilon=1e-6):
    """Central-difference gradient of sum(forward(x)) w.r.t. a parameter."""
    param = layer.params[param_key]
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        up = layer.forward(x, training=False).sum()
        flat[i] = original - epsilon
        down = layer.forward(x, training=False).sum()
        flat[i] = original
        grad.reshape(-1)[i] = (up - down) / (2 * epsilon)
    return grad


class TestConvUtils:
    def test_output_size(self):
        assert conv_output_size(32, 5) == 28
        assert conv_output_size(5, 5) == 1

    def test_output_size_rejects_large_kernel(self):
        with pytest.raises(ValueError):
            conv_output_size(4, 5)

    def test_im2col_shape(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        cols = im2col(x, 3)
        assert cols.shape == (2, 36, 27)

    def test_im2col_values_by_hand(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = im2col(x, 3)
        # first window is rows 0-2 x cols 0-2
        np.testing.assert_array_equal(
            cols[0, 0], [0, 1, 2, 4, 5, 6, 8, 9, 10])
        # second window shifts one column right
        np.testing.assert_array_equal(
            cols[0, 1], [1, 2, 3, 5, 6, 7, 9, 10, 11])

    def test_col2im_adjoint_property(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        x = RNG.normal(size=(2, 3, 6, 6))
        y = RNG.normal(size=(2, 16, 27))
        lhs = np.sum(im2col(x, 3) * y)
        rhs = np.sum(x * col2im(y, x.shape, 3))
        assert lhs == pytest.approx(rhs)

    def test_col2im_shape_check(self):
        # 4x4 input with k=3 yields 4 positions, not 5
        with pytest.raises(ValueError):
            col2im(np.zeros((1, 5, 9)), (1, 1, 4, 4), 3)


class TestDense:
    def test_forward_shape(self):
        layer = Dense(5, 3, rng=RNG)
        out = layer.forward(RNG.normal(size=(7, 5)))
        assert out.shape == (7, 3)

    def test_forward_values_identity_activation(self):
        layer = Dense(2, 2, activation="identity", rng=RNG)
        layer.params["W"] = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.params["b"] = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[4.5, 5.5]])

    def test_rejects_wrong_input_width(self):
        with pytest.raises(ValueError):
            Dense(5, 3).forward(np.zeros((2, 4)))

    def test_num_params(self):
        assert Dense(1024, 100).num_params == 102500

    @pytest.mark.parametrize("activation", ["identity", "sigmoid", "tanh"])
    def test_weight_gradient(self, activation):
        layer = Dense(4, 3, activation=activation, rng=RNG)
        x = RNG.normal(size=(5, 4))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        numeric = numeric_gradient(layer, x, "W")
        np.testing.assert_allclose(layer.grads["W"], numeric, atol=1e-5)

    def test_bias_gradient(self):
        layer = Dense(4, 3, activation="sigmoid", rng=RNG)
        x = RNG.normal(size=(5, 4))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        numeric = numeric_gradient(layer, x, "b")
        np.testing.assert_allclose(layer.grads["b"], numeric, atol=1e-5)

    def test_input_gradient(self):
        layer = Dense(4, 3, activation="tanh", rng=RNG)
        x = RNG.normal(size=(2, 4))
        out = layer.forward(x)
        grad_x = layer.backward(np.ones_like(out))
        h = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.size):
            xp = x.copy().reshape(-1)
            xp[i] += h
            up = layer.forward(xp.reshape(x.shape), training=False).sum()
            xp[i] -= 2 * h
            down = layer.forward(xp.reshape(x.shape), training=False).sum()
            numeric.reshape(-1)[i] = (up - down) / (2 * h)
        np.testing.assert_allclose(grad_x, numeric, atol=1e-5)

    def test_state_roundtrip(self):
        layer = Dense(3, 2, rng=RNG)
        saved = layer.state()
        layer.params["W"] += 1.0
        layer.load_state(saved)
        np.testing.assert_array_equal(layer.params["W"], saved["W"])

    def test_load_state_validates(self):
        layer = Dense(3, 2, rng=RNG)
        with pytest.raises(KeyError):
            layer.load_state({"missing": np.zeros(1)})
        with pytest.raises(ValueError):
            layer.load_state({"W": np.zeros((1, 1))})


class TestDefaultInitDeterminism:
    """Layers built without an explicit rng must be reproducible: the
    default generator is seeded (lint rule RPR001 guards the source)."""

    def test_dense_default_init_identical(self):
        a = Dense(12, 5)
        b = Dense(12, 5)
        np.testing.assert_array_equal(a.params["W"], b.params["W"])
        np.testing.assert_array_equal(a.params["b"], b.params["b"])

    def test_conv_default_init_identical(self):
        a = Conv2D(2, 3, 5)
        b = Conv2D(2, 3, 5)
        np.testing.assert_array_equal(a.params["W"], b.params["W"])

    def test_explicit_rng_still_wins(self):
        seeded = Dense(12, 5, rng=np.random.default_rng(7))
        default = Dense(12, 5)
        assert not np.array_equal(seeded.params["W"], default.params["W"])


class TestConv2D:
    def test_forward_shape(self):
        layer = Conv2D(3, 8, 5, rng=RNG)
        out = layer.forward(RNG.normal(size=(2, 3, 12, 12)))
        assert out.shape == (2, 8, 8, 8)

    def test_forward_matches_naive(self):
        layer = Conv2D(2, 3, 3, activation="identity", rng=RNG)
        x = RNG.normal(size=(1, 2, 5, 5))
        out = layer.forward(x, training=False)
        w, b = layer.params["W"], layer.params["b"]
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    expected = b[oc] + np.sum(
                        w[oc] * x[0, :, i:i + 3, j:j + 3])
                    assert out[0, oc, i, j] == pytest.approx(expected)

    def test_weight_gradient(self):
        layer = Conv2D(2, 3, 3, activation="tanh", rng=RNG)
        x = RNG.normal(size=(2, 2, 5, 5))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        numeric = numeric_gradient(layer, x, "W")
        np.testing.assert_allclose(layer.grads["W"], numeric, atol=1e-5)

    def test_input_gradient(self):
        layer = Conv2D(1, 2, 3, activation="identity", rng=RNG)
        x = RNG.normal(size=(1, 1, 4, 4))
        out = layer.forward(x)
        grad_x = layer.backward(np.ones_like(out))
        h = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.size):
            xp = x.copy().reshape(-1)
            xp[i] += h
            up = layer.forward(xp.reshape(x.shape), training=False).sum()
            xp[i] -= 2 * h
            down = layer.forward(xp.reshape(x.shape), training=False).sum()
            numeric.reshape(-1)[i] = (up - down) / (2 * h)
        np.testing.assert_allclose(grad_x, numeric, atol=1e-5)

    def test_connection_table_masks_weights(self):
        table = np.array([[True, False], [False, True], [True, True]])
        layer = Conv2D(2, 3, 3, connection_table=table, rng=RNG)
        assert np.all(layer.params["W"][0, 1] == 0)
        assert np.all(layer.params["W"][1, 0] == 0)

    def test_connection_table_masks_gradients(self):
        table = np.array([[True, False]])
        layer = Conv2D(2, 1, 3, activation="identity",
                       connection_table=table, rng=RNG)
        x = RNG.normal(size=(1, 2, 5, 5))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        assert np.all(layer.grads["W"][0, 1] == 0)

    def test_connection_table_param_count(self):
        # classic LeNet C3: 60 connected pairs, 5x5 kernels, 16 biases
        table = np.zeros((16, 6), dtype=bool)
        table.reshape(-1)[:60] = True
        layer = Conv2D(6, 16, 5, connection_table=table)
        assert layer.num_params == 60 * 25 + 16

    def test_connection_table_shape_check(self):
        with pytest.raises(ValueError):
            Conv2D(2, 3, 3, connection_table=np.ones((2, 2), dtype=bool))


class TestScaledAvgPool:
    def test_forward_shape(self):
        layer = ScaledAvgPool2D(4, 2)
        out = layer.forward(RNG.normal(size=(3, 4, 8, 8)))
        assert out.shape == (3, 4, 4, 4)

    def test_forward_values(self):
        layer = ScaledAvgPool2D(1, 2, activation="identity")
        layer.params["gain"] = np.array([2.0])
        layer.params["bias"] = np.array([1.0])
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        # top-left 2x2 block mean = (0+1+4+5)/4 = 2.5 -> 2*2.5+1 = 6
        assert out[0, 0, 0, 0] == pytest.approx(6.0)

    def test_gain_gradient(self):
        layer = ScaledAvgPool2D(2, 2, activation="tanh")
        x = RNG.normal(size=(2, 2, 4, 4))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        numeric = numeric_gradient(layer, x, "gain")
        np.testing.assert_allclose(layer.grads["gain"], numeric, atol=1e-5)

    def test_input_gradient_spreads_evenly(self):
        layer = ScaledAvgPool2D(1, 2, activation="identity")
        x = RNG.normal(size=(1, 1, 4, 4))
        out = layer.forward(x)
        grad_x = layer.backward(np.ones_like(out))
        # each input pixel receives gain / 4
        expected = layer.params["gain"][0] / 4
        np.testing.assert_allclose(grad_x, expected)

    def test_rejects_indivisible_input(self):
        with pytest.raises(ValueError):
            ScaledAvgPool2D(1, 2).forward(np.zeros((1, 1, 5, 5)))

    def test_num_params(self):
        assert ScaledAvgPool2D(6, 2).num_params == 12  # LeNet S2


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = RNG.normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)
