"""Constrained (re)training: projected SGD under quartet constraints.

The paper "imposes restrictions on the weight update" during retraining so
that unsupported quartet values never occur.  The differentiable-training
analogue is projection: after every optimiser step each synapse matrix is
quantised to its per-layer power-of-two grid, pushed onto the alphabet-
supported quartet grid by Algorithm 1, and dequantised back to float.
Biases are left unconstrained — the engine adds them in the accumulator;
they never pass through the multiplier.

:class:`ConstraintProjector` also supports a *per-layer* alphabet plan
(the paper's §VI.E mixed networks): pass one
:class:`~repro.asm.multiplier.Multiplier` per parameterised layer
(conventional layers stay unconstrained).
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.asm.alphabet import AlphabetSet
from repro.asm.multiplier import Multiplier
from repro.kernels import get_backend, quantize_constrain
from repro.kernels.registry import KernelBackend
from repro.nn.layers import Conv2D, Dense, ScaledAvgPool2D
from repro.nn.network import Sequential
from repro.nn.optim import SGD
from repro.nn.trainer import Trainer

__all__ = ["ConstraintProjector", "constrained_trainer", "weight_param_name"]

#: Which parameter of each layer type passes through the multiplier.
_WEIGHT_PARAMS = {Dense: "W", Conv2D: "W", ScaledAvgPool2D: "gain"}


def weight_param_name(layer) -> str | None:
    """Name of the multiplier-facing parameter of *layer*, if any."""
    for cls, param in _WEIGHT_PARAMS.items():
        if isinstance(layer, cls):
            return param
    return None


class ConstraintProjector:
    """Projects a network's weights onto alphabet-supported grids.

    Parameters
    ----------
    network:
        The network being trained.
    bits:
        Weight word width (8/12).
    alphabet_set:
        Single ASM set applied to every parameterised layer; give it or
        ``layer_plan``.
    layer_plan:
        Optional per-layer multipliers (conventional entries leave that
        layer unconstrained), aligned with the network's parameterised
        layers.
    mode:
        Constraint rounding mode (``"greedy"`` = Algorithm 1, or
        ``"nearest"``).
    backend:
        Projection-kernel backend (:mod:`repro.kernels`): ``"reference"``
        re-runs the original quantise → constrain → dequantise sequence,
        ``"fast"`` (the ``"auto"`` default) runs the fused in-place pass
        with memoized per-layer formats and buffers.  Bit-identical
        results either way — the projection runs after **every**
        optimiser step, so this is the retraining hot-loop speed knob
        (see ``BENCH_training.json``).
    """

    def __init__(self, network: Sequential, bits: int,
                 alphabet_set: AlphabetSet | None = None,
                 layer_plan: list[Multiplier] | None = None,
                 mode: str = "greedy",
                 backend: str | KernelBackend = "auto") -> None:
        self.network = network
        self.bits = bits
        self.mode = mode
        self._kernel = get_backend(backend)
        param_layers = [layer for layer in network.layers
                        if weight_param_name(layer) is not None]
        if layer_plan is None:
            if alphabet_set is None:
                raise ValueError("pass alphabet_set or layer_plan")
            layer_plan = [Multiplier(alphabet_set)] * len(param_layers)
        if len(layer_plan) != len(param_layers):
            raise ValueError(
                f"plan covers {len(layer_plan)} layers, network has "
                f"{len(param_layers)} parameterised layers"
            )
        self.layer_plan = list(layer_plan)
        self._targets = []
        for layer, multiplier in zip(param_layers, layer_plan):
            constrainer = multiplier.constrainer(bits, mode)
            if constrainer is not None:
                self._targets.append(
                    (layer, weight_param_name(layer), constrainer,
                     {}))   # per-target kernel cache (memoized fmt + buffers)

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the selected projection-kernel backend."""
        return self._kernel.name

    def project(self) -> None:
        """Snap every constrained weight tensor onto its supported grid.

        Dispatches to the backend's projection kernel
        (:meth:`~repro.kernels.registry.KernelBackend.project_weights`);
        every backend implements the same quantise → constrain →
        dequantise round trip (reference semantics:
        :func:`repro.kernels.quantize_constrain`).
        """
        if not obs.enabled():
            for layer, param, constrainer, cache in self._targets:
                layer.params[param] = self._kernel.project_weights(
                    layer.params[param], self.bits, constrainer, cache)
            return
        started = time.perf_counter()
        for layer, param, constrainer, cache in self._targets:
            layer.params[param] = self._kernel.project_weights(
                layer.params[param], self.bits, constrainer, cache)
        obs.record_kernel(self._kernel.name, "project_weights",
                          time.perf_counter() - started,
                          calls=len(self._targets))

    __call__ = project

    @property
    def num_constrained_layers(self) -> int:
        return len(self._targets)

    def violations(self) -> int:
        """Count weights currently off their supported grid (0 right after
        a projection — the invariant the tests check)."""
        total = 0
        for layer, param, constrainer, _ in self._targets:
            _, ints, constrained = quantize_constrain(
                layer.params[param], self.bits, constrainer)
            total += int(np.count_nonzero(constrained != ints))
        return total


def constrained_trainer(network: Sequential, optimizer: SGD,
                        projector: ConstraintProjector,
                        **trainer_kwargs) -> Trainer:
    """A :class:`Trainer` that projects after every optimiser step and once
    up front (so training starts from a feasible point)."""
    projector.project()
    return Trainer(network, optimizer, post_step=projector.project,
                   **trainer_kwargs)
