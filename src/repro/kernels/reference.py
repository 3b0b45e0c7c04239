"""Reference kernels: exact integer arithmetic, the engine's ground truth.

These are the forward kernels the quantised layer stack has always run —
int64 weights times int64 activation codes, exact integer accumulation,
float64 only for the bias/activation arithmetic between layers, and
round-half-away-from-zero requantisation.  Every other backend is defined
by being bit-identical to this one (asserted across widths, alphabet
sets, mixed plans and fallback policies in ``tests/test_kernels.py``).

Kernels accept activation codes as either ``int64`` or integer-valued
``float64`` (the carrier dtype of the fast backend): codes are coerced to
``int64`` on entry, which is exact because codes are bounded by the
activation word width.  That makes backends freely mixable layer-by-layer
within one forward pass.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.conv_utils import conv_output_size, im2col
from repro.kernels.projection import project_reference
from repro.kernels.registry import KernelBackend, register_backend
from repro.kernels.simulate import simulate_layer_reference
from repro.kernels.training import (
    sgd_update_reference,
    train_backward_reference,
    train_forward_reference,
)

__all__ = ["apply_activation", "requantize", "dense_forward",
           "conv_forward", "pool_forward", "ReferenceBackend"]


def _as_int_codes(x: np.ndarray) -> np.ndarray:
    """Coerce activation codes to ``int64`` (exact: codes are integers)."""
    if x.dtype == np.int64:
        return x
    return x.astype(np.int64)


def apply_activation(real_values: np.ndarray, activation,
                     lut) -> np.ndarray:
    """Activation step shared by every requantiser.

    *lut* (a hardware :class:`~repro.nn.activations.SigmoidLUT`) takes
    precedence over the float activation; ``activation=None`` passes the
    values through.  One definition for all backends — the bit-identity
    guarantee rests on them never diverging here.
    """
    if lut is not None:
        return lut(real_values)
    if activation is not None:
        return activation.forward(real_values)
    return real_values


def requantize(real_values: np.ndarray, activation, act_fmt,
               lut) -> np.ndarray:
    """Apply the activation to real pre-activations and quantise."""
    return act_fmt.quantize_array(
        apply_activation(real_values, activation, lut))


def dense_forward(layer, x, x_fmt):
    """Dense layer: exact integer MACs, then bias/activation/requantise."""
    acc = _as_int_codes(x) @ layer.w_int
    scale = x_fmt.resolution * layer.w_fmt.resolution
    real = acc.astype(np.float64) * scale + layer.bias
    if layer.is_output:
        return real, None  # raw scores for argmax
    return requantize(real, layer.activation, layer.act_fmt,
                      layer.lut), layer.act_fmt


def conv_forward(layer, x, x_fmt):
    """Valid conv via im2col: exact integer GEMM per output patch."""
    x = _as_int_codes(x)
    batch, _, height, width = x.shape
    out_h = conv_output_size(height, layer.kernel)
    out_w = conv_output_size(width, layer.kernel)
    cols = im2col(x, layer.kernel)
    kernels = layer.w_int.reshape(layer.out_channels, -1)
    acc = cols @ kernels.T                         # (b, p, oc), integer
    scale = x_fmt.resolution * layer.w_fmt.resolution
    real = acc.astype(np.float64) * scale + layer.bias
    real = real.transpose(0, 2, 1).reshape(
        batch, layer.out_channels, out_h, out_w)
    return requantize(real, layer.activation, layer.act_fmt,
                      layer.lut), layer.act_fmt


def pool_forward(layer, x, x_fmt):
    """Scaled average pool: integer window sums times the integer gain."""
    x = _as_int_codes(x)
    batch, channels, height, width = x.shape
    s = layer.size
    sums = x.reshape(batch, channels, height // s, s,
                     width // s, s).sum(axis=(3, 5))
    acc = sums * layer.gain_int[:, None, None]     # integer multiply
    scale = x_fmt.resolution * layer.gain_fmt.resolution / (s * s)
    real = acc.astype(np.float64) * scale + layer.bias[:, None, None]
    return requantize(real, layer.activation, layer.act_fmt,
                      layer.lut), layer.act_fmt


class ReferenceBackend(KernelBackend):
    """The exact integer backend (see module docstring)."""

    name = "reference"

    def quantize_input(self, x, fmt):
        return fmt.quantize_array(x)

    def dense(self, layer, x, x_fmt):
        return dense_forward(layer, x, x_fmt)

    def conv(self, layer, x, x_fmt):
        return conv_forward(layer, x, x_fmt)

    def pool(self, layer, x, x_fmt):
        return pool_forward(layer, x, x_fmt)

    def simulate_layer(self, weights, inputs, units, bank_multiples):
        return simulate_layer_reference(weights, inputs, units,
                                        bank_multiples)

    def project_weights(self, weights, bits, constrainer, cache):
        return project_reference(weights, bits, constrainer, cache)

    def train_forward(self, network, x, training=True):
        return train_forward_reference(network, x, training)

    def train_backward(self, network, grad, input_grad=True):
        return train_backward_reference(network, grad, input_grad)

    def sgd_update(self, network, velocity, rate, momentum):
        sgd_update_reference(network, velocity, rate, momentum)


REFERENCE = ReferenceBackend()
register_backend("reference", REFERENCE)
