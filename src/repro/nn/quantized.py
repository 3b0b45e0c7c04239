"""Bit-accurate quantised inference with conventional or ASM multipliers.

This is the software twin of the paper's Verilog processing engine: synapse
weights live on an integer grid with a per-layer power-of-two scale,
activations are quantised between layers, accumulation is exact integer
arithmetic, and the multiplier is either exact (conventional) or an
:class:`~repro.asm.multiplier.AlphabetSetMultiplier` — whose effect reduces
to remapping each integer weight to the *effective weight* the select/shift/
add datapath realises.

Because constrain-then-multiply is exact (tested in
``tests/test_multiplier.py``), a network retrained under weight constraints
loses **nothing further** when deployed on the ASM engine; an unconstrained
network deployed with a reduced alphabet set degrades according to the
multiplier's fallback policy.  Both paths are exposed so the retraining
ablation can measure the difference.

The layer classes here hold the folded integer arrays and formats; the
arithmetic itself lives in :mod:`repro.kernels`, where each forward kernel
exists as a bit-exact ``reference`` implementation and a BLAS-lowered
``fast`` one.  A :class:`QuantizedNetwork` selects a backend (default
``reference``); the backends are bit-identical, so the choice only affects
speed.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro import obs
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import CONVENTIONAL, FALLBACK_POLICIES, Multiplier
from repro.fixedpoint.qformat import QFormat, qformat_for_range
from repro.kernels import DEFAULT_EVAL_BATCH, batched_accuracy, get_backend
from repro.kernels.registry import KernelBackend
from repro.nn.activations import Activation, SigmoidLUT
from repro.nn.layers import Conv2D, Dense, Flatten, ScaledAvgPool2D
from repro.nn.network import Sequential

__all__ = ["QuantizedNetwork", "QuantizationSpec"]


class QuantizationSpec:
    """How to quantise a float network for the processing engine.

    Parameters
    ----------
    bits:
        Word width for weights and activations (8 or 12 in the paper).
    multiplier:
        The engine's multiplier (default conventional).  For an ASM,
        combine with ``constrainer`` for constrained-retrained weights or
        ``fallback`` for post-hoc deployment.
    constrainer:
        Optional :class:`WeightConstrainer` applied to the integer weights
        (Algorithm 1) before they reach the multiplier.
    fallback:
        ASM control-logic policy for unsupported quartets (see
        :mod:`repro.asm.multiplier`).
    """

    def __init__(self, bits: int, multiplier: Multiplier = CONVENTIONAL,
                 constrainer: WeightConstrainer | None = None,
                 fallback: str = "error") -> None:
        if fallback not in FALLBACK_POLICIES:
            raise ValueError(
                f"unknown fallback {fallback!r}; choose from "
                f"{FALLBACK_POLICIES}")
        self.bits = bits
        self.multiplier = multiplier
        self.constrainer = constrainer
        self.fallback = fallback
        if constrainer is not None and constrainer.bits != bits:
            raise ValueError(
                f"constrainer is {constrainer.bits}-bit, spec is {bits}-bit"
            )

    @classmethod
    def constrained(cls, bits: int, multiplier: Multiplier,
                    mode: str = "greedy",
                    fallback: str = "error") -> "QuantizationSpec":
        """The constrained-retraining deployment spec: *multiplier* with
        its matching Algorithm-1 :class:`WeightConstrainer` (none for
        conventional, which makes this the plain spec)."""
        return cls(bits, multiplier,
                   constrainer=multiplier.constrainer(bits, mode),
                   fallback=fallback)

    # ------------------------------------------------------------------
    def quantize_weights(self, weights: np.ndarray,
                         ) -> tuple[np.ndarray, QFormat]:
        """Float weights → (deployed integer weights, their Q-format).

        Pipeline: power-of-two scale → round to grid → optional Algorithm-1
        constraining → ASM effective-weight remap
        (:meth:`repro.asm.multiplier.Multiplier.effective_weights`, one
        lookup in the process-wide memoized table).
        """
        max_abs = float(np.max(np.abs(weights))) if weights.size else 1.0
        fmt = qformat_for_range(self.bits, max(max_abs, 1e-12))
        ints = fmt.quantize_array(weights)
        if self.constrainer is not None:
            ints = self.constrainer.constrain_array(ints)
        return self.multiplier.effective_weights(self.bits, ints,
                                                 self.fallback), fmt

    @property
    def label(self) -> str:
        suffix = "-constrained" if self.constrainer is not None else \
            f"-{self.fallback}"
        return f"{self.bits}b-" + self.multiplier.label(
            asm="asm{count}" + suffix)


class _QuantLayer:
    """Base for the quantised layer stack.

    Each parameterised subclass is constructible two ways: from a float
    layer (:meth:`from_layer`, the training → deployment path) or directly
    from the already-folded integer arrays (the
    :class:`~repro.serving.compiled.CompiledModel` reload path).  Both
    construct the exact same object, so a reloaded network's forward pass
    is bit-identical.

    Layers carry data only; ``forward`` dispatches to a
    :class:`~repro.kernels.registry.KernelBackend` (the reference backend
    unless the caller selects another).
    """

    #: Serialisation tag used by :mod:`repro.serving.artifact`; also the
    #: kernel-dispatch key.
    kind = "base"

    name: str | None = None

    #: Multiplier the layer's weights were folded for.  Per-layer because
    #: mixed deployments (§VI.E) quantise each layer under its own spec;
    #: the serving stack costs energy from it.  Set by
    #: :meth:`QuantizedNetwork.from_float` and by the artifact loader.
    multiplier: Multiplier = CONVENTIONAL

    def forward(self, x: np.ndarray, x_fmt: QFormat,
                backend: KernelBackend | None = None,
                ) -> tuple[np.ndarray, QFormat]:
        raise NotImplementedError


class _QuantDense(_QuantLayer):
    kind = "dense"

    def __init__(self, w_int: np.ndarray, w_fmt: QFormat, bias: np.ndarray,
                 activation: Activation, act_fmt: QFormat,
                 lut: SigmoidLUT | None, is_output: bool = False,
                 name: str | None = None) -> None:
        self.w_int = np.ascontiguousarray(w_int, dtype=np.int64)
        self.w_fmt = w_fmt
        self.bias = np.asarray(bias, dtype=np.float64)
        self.activation = activation
        self.act_fmt = act_fmt
        self.lut = lut
        self.is_output = is_output  # set by QuantizedNetwork
        self.name = name

    @classmethod
    def from_layer(cls, layer: Dense, spec: QuantizationSpec,
                   act_fmt: QFormat, lut: SigmoidLUT | None) -> "_QuantDense":
        w_int, w_fmt = spec.quantize_weights(layer.params["W"])
        return cls(w_int, w_fmt, layer.params["b"].copy(), layer.activation,
                   act_fmt, lut if layer.activation.name == "sigmoid"
                   else None, name=layer.name)

    def forward(self, x, x_fmt, backend=None):
        return _dispatch((backend or _REFERENCE), "dense", self, x, x_fmt)


class _QuantConv(_QuantLayer):
    kind = "conv"

    def __init__(self, w_int: np.ndarray, w_fmt: QFormat, bias: np.ndarray,
                 kernel: int, activation: Activation, act_fmt: QFormat,
                 lut: SigmoidLUT | None, name: str | None = None) -> None:
        self.w_int = np.ascontiguousarray(w_int, dtype=np.int64)
        self.w_fmt = w_fmt
        self.bias = np.asarray(bias, dtype=np.float64)
        self.kernel = kernel
        self.out_channels = self.w_int.shape[0]
        self.activation = activation
        self.act_fmt = act_fmt
        self.lut = lut
        self.name = name

    @classmethod
    def from_layer(cls, layer: Conv2D, spec: QuantizationSpec,
                   act_fmt: QFormat, lut: SigmoidLUT | None) -> "_QuantConv":
        w_int, w_fmt = spec.quantize_weights(layer.params["W"])
        return cls(w_int, w_fmt, layer.params["b"].copy(), layer.kernel,
                   layer.activation, act_fmt,
                   lut if layer.activation.name == "sigmoid" else None,
                   name=layer.name)

    def forward(self, x, x_fmt, backend=None):
        return _dispatch((backend or _REFERENCE), "conv", self, x, x_fmt)


class _QuantPool(_QuantLayer):
    kind = "pool"

    def __init__(self, gain_int: np.ndarray, gain_fmt: QFormat,
                 bias: np.ndarray, size: int, activation: Activation,
                 act_fmt: QFormat, lut: SigmoidLUT | None,
                 name: str | None = None) -> None:
        self.gain_int = np.ascontiguousarray(gain_int, dtype=np.int64)
        self.gain_fmt = gain_fmt
        self.bias = np.asarray(bias, dtype=np.float64)
        self.size = size
        self.channels = self.gain_int.shape[0]
        self.activation = activation
        self.act_fmt = act_fmt
        self.lut = lut
        self.name = name

    @classmethod
    def from_layer(cls, layer: ScaledAvgPool2D, spec: QuantizationSpec,
                   act_fmt: QFormat, lut: SigmoidLUT | None) -> "_QuantPool":
        gain_int, gain_fmt = spec.quantize_weights(layer.params["gain"])
        return cls(gain_int, gain_fmt, layer.params["bias"].copy(),
                   layer.size, layer.activation, act_fmt,
                   lut if layer.activation.name == "sigmoid" else None,
                   name=layer.name)

    def forward(self, x, x_fmt, backend=None):
        return _dispatch((backend or _REFERENCE), "pool", self, x, x_fmt)


class _QuantFlatten(_QuantLayer):
    kind = "flatten"

    def __init__(self, name: str | None = None) -> None:
        self.name = name

    def forward(self, x, x_fmt, backend=None):
        # pure reshape: backend-independent, dtype passes through
        return x.reshape(x.shape[0], -1), x_fmt


#: Default dispatch target when a layer is driven without a network.
_REFERENCE = get_backend("reference")

#: Kernels-layer fault-injection hook (``repro.faults.inject``): when
#: set, every dispatched kernel's output codes pass through it, so all
#: backends see *identical* faulted values.  ``None`` (the default)
#: costs one extra comparison per kernel call.
_FAULT_HOOK = None


def set_fault_hook(hook) -> None:
    """Install (or clear, with ``None``) the dispatch fault hook.

    The hook is ``hook(layer, codes, fmt) -> codes``; it sits *after*
    the backend kernel, which is what keeps reference and fast backends
    bit-identical under fault.  Owned by
    :func:`repro.faults.inject.fault_session` — use that, not this.
    """
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def _dispatch(backend, kernel: str, layer, x, x_fmt):
    """Run one forward kernel, accounting the call when obs is enabled.

    The disabled path costs one boolean check (<1% on the kernels
    micro-bench, enforced by ``benchmarks/bench_obs_overhead.py``); the
    enabled path records per-(backend, kernel) call counts and
    cumulative seconds into ``kernels.calls`` / ``kernels.seconds``.
    """
    fn = getattr(backend, kernel)
    if not obs.enabled():
        out = fn(layer, x, x_fmt)
        if _FAULT_HOOK is not None:
            out = (_FAULT_HOOK(layer, out[0], out[1]), out[1])
        return out
    started = time.perf_counter()
    out = fn(layer, x, x_fmt)
    obs.record_kernel(backend.name, kernel,
                      time.perf_counter() - started)
    if _FAULT_HOOK is not None:
        out = (_FAULT_HOOK(layer, out[0], out[1]), out[1])
    return out


class QuantizedNetwork:
    """A float :class:`Sequential` lowered onto the integer engine.

    Use :meth:`from_float`; inputs to :meth:`predict`/:meth:`accuracy` are
    the *float* arrays — they are quantised to the activation format on
    entry, exactly as the engine's input interface would.

    ``backend`` selects the compute kernels (``"reference"`` / ``"fast"``
    / ``"auto"`` — see :mod:`repro.kernels`); all backends produce
    bit-identical outputs, so it is a speed knob, not a semantics knob.
    """

    def __init__(self, layers: list[_QuantLayer], act_fmt: QFormat,
                 spec: QuantizationSpec, name: str = "network",
                 input_spatial: tuple[int, int] | None = None,
                 use_lut: bool = False,
                 backend: str | KernelBackend = "reference") -> None:
        self.layers = layers
        self.act_fmt = act_fmt
        self.spec = spec
        self.name = name
        self.input_spatial = input_spatial
        self.use_lut = use_lut
        self._backend = get_backend(backend)

    @classmethod
    def from_float(cls, network: Sequential, spec: QuantizationSpec,
                   use_lut: bool = False,
                   layer_specs: list[QuantizationSpec] | None = None,
                   backend: str | KernelBackend = "reference",
                   ) -> "QuantizedNetwork":
        """Lower *network* under *spec*.

        ``use_lut=True`` routes sigmoid activations through the hardware
        :class:`SigmoidLUT` instead of the float sigmoid + rounding.

        ``layer_specs`` optionally overrides the spec per *parameterised*
        layer (Dense/Conv/Pool, in network order) — the mixed-alphabet
        deployment of the paper's §VI.E.  All specs must share ``bits``.
        """
        act_fmt = QFormat(spec.bits, spec.bits - 1)  # activations in [-1, 1)
        lut = SigmoidLUT(output_bits=spec.bits - 1) if use_lut else None
        param_layers = [layer for layer in network.layers
                        if isinstance(layer, (Dense, Conv2D, ScaledAvgPool2D))]
        if layer_specs is not None:
            if len(layer_specs) != len(param_layers):
                raise ValueError(
                    f"{len(layer_specs)} layer specs for "
                    f"{len(param_layers)} parameterised layers"
                )
            if any(s.bits != spec.bits for s in layer_specs):
                raise ValueError("all layer specs must share the word width")
        spec_iter = iter(layer_specs or [])

        def next_spec() -> QuantizationSpec:
            return next(spec_iter) if layer_specs is not None else spec

        layers: list[_QuantLayer] = []
        for layer in network.layers:
            if isinstance(layer, Flatten):
                layers.append(_QuantFlatten(name=layer.name))
                continue
            if isinstance(layer, Dense):
                quant_cls = _QuantDense
            elif isinstance(layer, Conv2D):
                quant_cls = _QuantConv
            elif isinstance(layer, ScaledAvgPool2D):
                quant_cls = _QuantPool
            else:
                raise TypeError(
                    f"cannot quantise layer type {type(layer).__name__}"
                )
            layer_spec = next_spec()
            quant = quant_cls.from_layer(layer, layer_spec, act_fmt, lut)
            quant.multiplier = layer_spec.multiplier     # the fold tag
            layers.append(quant)
        dense_like = [q for q in layers
                      if isinstance(q, (_QuantDense,))]
        if dense_like:
            dense_like[-1].is_output = True
        return cls(layers, act_fmt, spec, name=network.name,
                   input_spatial=network.input_spatial, use_lut=use_lut,
                   backend=backend)

    # ------------------------------------------------------------------
    # backend selection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the selected kernel backend."""
        return self._backend.name

    def with_backend(self, backend: str | KernelBackend,
                     ) -> "QuantizedNetwork":
        """A shallow copy (shared layers) running on *backend*."""
        clone = copy.copy(self)
        clone._backend = get_backend(backend)
        return clone

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw output scores for a float input batch."""
        backend = self._backend
        codes = backend.quantize_input(x, self.act_fmt)
        fmt = self.act_fmt
        for layer in self.layers:
            codes, fmt = layer.forward(codes, fmt, backend)
        return codes  # final dense returns real scores

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x), axis=1)

    def dense_layer_inputs(self, x: np.ndarray,
                           ) -> list[tuple[_QuantDense, np.ndarray]]:
        """Per-dense-layer integer input codes for a float batch.

        Runs one forward pass and captures, for every dense layer, the
        int64 activation codes that the engine would broadcast on the
        input bus while evaluating it — the operand streams the
        cycle-accurate simulator
        (:class:`~repro.hardware.simulator.CycleAccurateEngine`) needs
        for data-dependent toggle energy.  Conv/pool layers are skipped
        (the simulator models the dense MAC schedule); codes are exact
        regardless of the selected kernel backend.
        """
        backend = self._backend
        codes = backend.quantize_input(x, self.act_fmt)
        fmt = self.act_fmt
        captured: list[tuple[_QuantDense, np.ndarray]] = []
        for layer in self.layers:
            if isinstance(layer, _QuantDense):
                captured.append((layer, codes.astype(np.int64)))
            codes, fmt = layer.forward(codes, fmt, backend)
        return captured

    def accuracy(self, x: np.ndarray, labels: np.ndarray,
                 batch_size: int = DEFAULT_EVAL_BATCH) -> float:
        return batched_accuracy(self.predict, x, labels,
                                batch_size=batch_size)

    @property
    def weight_layers(self) -> list[_QuantLayer]:
        """Quantised layers that carry a synapse matrix."""
        return [q for q in self.layers
                if isinstance(q, (_QuantDense, _QuantConv))]

    @property
    def deployment_label(self) -> str:
        """Spec label describing the *actual* deployment.

        Uniform networks report ``spec.label``; mixed (§VI.E) networks —
        where per-layer specs diverge from the base spec — report each
        layer's multiplier, so reports and artifact manifests never
        describe a mixed ASM deployment as conventional.
        """
        param_layers = [q for q in self.layers if q.kind != "flatten"]
        if len({q.multiplier for q in param_layers}) <= 1:
            return self.spec.label
        return (f"{self.spec.bits}b-mixed("
                + "|".join(q.multiplier.label("conv") for q in param_layers)
                + ")-constrained")
