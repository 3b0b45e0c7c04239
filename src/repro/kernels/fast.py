"""Fast kernels: the exact-in-float64 BLAS lowering.

numpy has no accelerated int64 GEMM, but whenever a layer's accumulator
bound ``fan_in * max|W| * max|x|`` stays below ``2**53`` every product
and partial sum is an exactly-representable float64 integer, so running
the accumulation through ``dgemm`` is *bit-exact* while being several
times faster.  8- and 12-bit words at the paper's fan-ins clear the
bound by ~20 binary orders of magnitude.

Each kernel checks the bound per layer (:func:`blas_exact`) and falls
back to the :mod:`reference <repro.kernels.reference>` kernel when it
fails, so the backend is bit-identical to ``reference`` unconditionally
— the fallback merely loses the speedup.  Activation codes are carried
as integer-valued float64 between fast layers (requantisation produces
them directly via :func:`quantize_codes_f64`), skipping two dtype
round-trips per layer; reference-kernel layers coerce back to int64 on
entry.

Per-layer precomputations — the float64 view of the folded integer
weights and the exactness decision — are cached on the layer objects
(``layer._kernel_cache``), so repeated forward passes and networks that
share layers (e.g. :meth:`QuantizedNetwork.with_backend
<repro.nn.quantized.QuantizedNetwork.with_backend>`) pay them once.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.binary import signed_range
from repro.kernels import reference
from repro.kernels.projection import project_fast
from repro.kernels.registry import KernelBackend, register_backend
from repro.kernels.simulate import simulate_layer_fast
from repro.kernels.training import (
    sgd_update_fast,
    train_backward_fast,
    train_forward_fast,
)

__all__ = ["blas_exact", "quantize_codes_f64", "requantize_codes",
           "FastBackend"]

#: Largest integer magnitude float64 represents exactly.
EXACT_FLOAT64 = 2 ** 53


def blas_exact(w_int: np.ndarray, fan_in: int, act_fmt) -> bool:
    """True when the layer's accumulation cannot round in float64.

    Activations are act-format codes, so ``|x| <= 2**(total_bits-1)``;
    with ``fan_in`` MACs the accumulator magnitude is bounded by
    ``fan_in * max|W| * max|x|``.  Exact while that stays below ``2**53``.
    """
    max_w = int(np.abs(w_int).max()) if w_int.size else 0
    max_x = 1 << (act_fmt.total_bits - 1)
    return fan_in * max_w * max_x < EXACT_FLOAT64


def quantize_codes_f64(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt.quantize_array`` producing float64 codes instead of int64.

    Same op sequence (scale, round-half-away-from-zero, saturate) with
    in-place arithmetic, so the code *values* are identical — they just
    stay in the dtype the BLAS kernels consume.
    """
    low, high = signed_range(fmt.total_bits)
    scaled = np.asarray(values, dtype=np.float64) / fmt.resolution
    signs = np.sign(scaled)
    np.abs(scaled, out=scaled)
    scaled += 0.5
    np.floor(scaled, out=scaled)
    scaled *= signs
    return np.clip(scaled, low, high, out=scaled)


def requantize_codes(real_values: np.ndarray, activation, act_fmt,
                     lut) -> np.ndarray:
    """The float-codes twin of :func:`repro.kernels.reference.requantize`:
    same activation step, float64-carrier quantiser."""
    return quantize_codes_f64(
        reference.apply_activation(real_values, activation, lut), act_fmt)


def _as_f64_codes(x: np.ndarray) -> np.ndarray:
    if x.dtype == np.float64:
        return x
    return x.astype(np.float64)


def _cache(layer) -> dict:
    cache = layer.__dict__.get("_kernel_cache")
    if cache is None:
        cache = layer.__dict__["_kernel_cache"] = {}
    return cache


def _dense_plan(layer) -> np.ndarray | None:
    """Float64 weight matrix of a dense layer, or ``None`` if inexact."""
    cache = _cache(layer)
    if "dense" not in cache:
        if blas_exact(layer.w_int, layer.w_int.shape[0], layer.act_fmt):
            cache["dense"] = np.ascontiguousarray(layer.w_int,
                                                  dtype=np.float64)
        else:
            cache["dense"] = None
    return cache["dense"]


def _conv_plan(layer) -> np.ndarray | None:
    """Transposed float64 kernel matrix of a conv layer, or ``None``."""
    cache = _cache(layer)
    if "conv" not in cache:
        fan_in = layer.w_int.shape[1] * layer.kernel * layer.kernel
        if blas_exact(layer.w_int, fan_in, layer.act_fmt):
            kernels = layer.w_int.reshape(layer.out_channels, -1)
            cache["conv"] = np.ascontiguousarray(kernels.T,
                                                 dtype=np.float64)
        else:
            cache["conv"] = None
    return cache["conv"]


def _pool_plan(layer) -> np.ndarray | None:
    """Float64 gain column of a pool layer, or ``None`` if inexact."""
    cache = _cache(layer)
    if "pool" not in cache:
        # accumulator bound: an s*s window sum of codes times the gain
        fan_in = layer.size * layer.size
        if blas_exact(layer.gain_int, fan_in, layer.act_fmt):
            cache["pool"] = layer.gain_int.astype(np.float64)[:, None, None]
        else:
            cache["pool"] = None
    return cache["pool"]


class FastBackend(KernelBackend):
    """BLAS-in-float64 kernels with per-layer exactness fallback."""

    name = "fast"

    def quantize_input(self, x, fmt):
        return quantize_codes_f64(x, fmt)

    def dense(self, layer, x, x_fmt):
        w_f64 = _dense_plan(layer)
        if w_f64 is None:
            return reference.dense_forward(layer, x, x_fmt)
        # bit-exact: every product/partial sum is an integer < 2**53
        acc = _as_f64_codes(x) @ w_f64
        scale = x_fmt.resolution * layer.w_fmt.resolution
        real = acc * scale + layer.bias
        if layer.is_output:
            return real, None
        return requantize_codes(real, layer.activation, layer.act_fmt,
                                layer.lut), layer.act_fmt

    def conv(self, layer, x, x_fmt):
        from repro.nn.conv_utils import conv_output_size, im2col

        kernels_t = _conv_plan(layer)
        if kernels_t is None:
            return reference.conv_forward(layer, x, x_fmt)
        x = _as_f64_codes(x)
        batch, _, height, width = x.shape
        out_h = conv_output_size(height, layer.kernel)
        out_w = conv_output_size(width, layer.kernel)
        acc = im2col(x, layer.kernel) @ kernels_t
        scale = x_fmt.resolution * layer.w_fmt.resolution
        real = acc * scale + layer.bias
        real = real.transpose(0, 2, 1).reshape(
            batch, layer.out_channels, out_h, out_w)
        return requantize_codes(real, layer.activation, layer.act_fmt,
                                layer.lut), layer.act_fmt

    def pool(self, layer, x, x_fmt):
        gain_f64 = _pool_plan(layer)
        if gain_f64 is None:
            return reference.pool_forward(layer, x, x_fmt)
        x = _as_f64_codes(x)
        batch, channels, height, width = x.shape
        s = layer.size
        sums = x.reshape(batch, channels, height // s, s,
                         width // s, s).sum(axis=(3, 5))
        acc = sums * gain_f64                      # exact integer products
        scale = x_fmt.resolution * layer.gain_fmt.resolution / (s * s)
        real = acc * scale + layer.bias[:, None, None]
        return requantize_codes(real, layer.activation, layer.act_fmt,
                                layer.lut), layer.act_fmt

    def lowering(self, layer) -> str:
        plans = {"dense": _dense_plan, "conv": _conv_plan,
                 "pool": _pool_plan}
        plan = plans.get(layer.kind)
        if plan is None:
            return "integer"
        return "blas" if plan(layer) is not None else "integer"

    def simulate_layer(self, weights, inputs, units, bank_multiples):
        return simulate_layer_fast(weights, inputs, units, bank_multiples)

    def project_weights(self, weights, bits, constrainer, cache):
        return project_fast(weights, bits, constrainer, cache)

    def train_forward(self, network, x, training=True):
        return train_forward_fast(network, x, training)

    def train_backward(self, network, grad, input_grad=True):
        return train_backward_fast(network, grad, input_grad)

    def sgd_update(self, network, velocity, rate, momentum):
        sgd_update_fast(network, velocity, rate, momentum)


FAST = FastBackend()
register_backend("fast", FAST)
# "auto" = the fastest backend that is guaranteed bit-identical to the
# reference — today that is `fast`, whose kernels fall back per layer.
register_backend("auto", FAST)
