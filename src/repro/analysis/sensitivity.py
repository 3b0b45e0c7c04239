"""Per-layer sensitivity to ASM approximation.

The paper's §VI.E mixed-alphabet scheme rests on a claim borrowed from
AxNN [29]: neurons in the concluding layers influence the output more than
neurons in the initial layers.  This module measures that directly — each
layer is constrained (or fallback-approximated) *alone* while the rest of
the network stays exact, and the accuracy drop is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asm.alphabet import AlphabetSet
from repro.asm.multiplier import Multiplier
from repro.nn.network import Sequential
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
from repro.training.constrained import weight_param_name

__all__ = ["LayerSensitivity", "layer_sensitivity"]


@dataclass(frozen=True)
class LayerSensitivity:
    """Accuracy effect of approximating one layer in isolation."""

    layer_index: int
    layer_name: str
    accuracy: float
    drop: float                 # baseline - accuracy


def layer_sensitivity(network: Sequential, x_test: np.ndarray,
                      labels: np.ndarray, bits: int,
                      alphabet_set: AlphabetSet,
                      constrain: bool = True,
                      backend: str = "reference",
                      eval_batch_size: int | None = None,
                      ) -> list[LayerSensitivity]:
    """Approximate each parameterised layer alone; report accuracy drops.

    ``constrain=True`` snaps the layer's weights with Algorithm 1 (the
    deployment the paper retrains for, minus the retraining);
    ``constrain=False`` uses the hardware ``nearest`` fallback instead.
    Either way the *other* layers run with the exact conventional engine,
    isolating each layer's contribution.  ``backend`` selects the compute
    kernels for the probe passes (bit-identical across backends; the
    sensitivity-guided explorer passes ``fast``).
    """
    from repro.kernels import DEFAULT_EVAL_BATCH

    batch = eval_batch_size or DEFAULT_EVAL_BATCH
    param_layers = [(index, layer) for index, layer
                    in enumerate(network.layers)
                    if weight_param_name(layer) is not None]
    baseline_spec = QuantizationSpec(bits)
    baseline = QuantizedNetwork.from_float(
        network, baseline_spec, backend=backend).accuracy(
            x_test, labels, batch_size=batch)

    multiplier = Multiplier(alphabet_set)
    if constrain:
        approx_spec = QuantizationSpec.constrained(bits, multiplier)
    else:
        approx_spec = QuantizationSpec(bits, multiplier, fallback="nearest")

    results = []
    for position, (index, layer) in enumerate(param_layers):
        layer_specs = [baseline_spec] * len(param_layers)
        layer_specs[position] = approx_spec
        quantized = QuantizedNetwork.from_float(
            network, baseline_spec, layer_specs=layer_specs,
            backend=backend)
        accuracy = quantized.accuracy(x_test, labels, batch_size=batch)
        results.append(LayerSensitivity(
            layer_index=index,
            layer_name=layer.name,
            accuracy=accuracy,
            drop=baseline - accuracy,
        ))
    return results
