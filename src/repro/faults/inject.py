"""Fault injection into :class:`~repro.nn.quantized.QuantizedNetwork`.

Two injection faces, one per fault family:

* **Weight faults** (``weight_bitflip`` / ``weight_stuck``) perturb the
  stored effective-weight words once: :func:`fault_network` returns a
  faulted clone sharing everything but the synapse arrays.
* **Activation faults** (``activation_upset`` /
  ``requantize_saturation``) perturb inter-layer traffic:
  :func:`fault_session` installs a hook at the kernels dispatch layer
  (:func:`repro.nn.quantized.set_fault_hook`), so *whatever backend*
  computes a layer, its output codes pass through the same deterministic
  corruption — reference and fast backends see bit-identical faulted
  values.

:func:`faulted_accuracy` is the one entry point the resiliency curve,
the pipeline ``faults`` stage and the tests share.  Injection volume is
accounted in the ``faults.injected`` counter (labelled by kind) when
observability is enabled.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.faults.models import ACTIVATION_FAULT_KINDS, FaultModelError, \
    FaultSpec, WEIGHT_FAULT_KINDS, fault_activation_array, \
    fault_weight_array
from repro.kernels import DEFAULT_EVAL_BATCH
from repro.nn import quantized as _quantized
from repro.nn.quantized import QuantizedNetwork

__all__ = ["fault_network", "fault_session",
           "faulted_accuracy"]


class FaultSession:
    """Activation-fault scope bound to one network's layer order.

    The dispatch hook receives the *layer object*; faults must be keyed
    by the layer's stable position in the network (not ``id()``, which
    is process-specific), so the session maps layer identity -> index at
    construction.  Layers of other networks pass through untouched, and
    the output layer is never corrupted (its raw scores are the
    decision, not bus traffic).
    """

    def __init__(self, spec: FaultSpec, network: QuantizedNetwork) -> None:
        self.spec = spec
        self._layer_index = {id(layer): index
                             for index, layer in enumerate(network.layers)}
        self.injected = 0

    def __call__(self, layer, codes, fmt):
        index = self._layer_index.get(id(layer))
        if index is None or getattr(layer, "is_output", False) \
                or fmt is None:
            return codes
        faulted, count = fault_activation_array(
            np.asarray(codes), fmt.total_bits, self.spec, index)
        if count:
            self.injected += count
            if obs.enabled():
                obs.registry().counter(
                    "faults.injected", kind=self.spec.kind).inc(count)
        return faulted


@contextmanager
def fault_session(spec: FaultSpec, network: QuantizedNetwork):
    """Install the activation-fault dispatch hook for *network*.

    Not reentrant and not thread-safe — one faulted evaluation at a
    time, which is how the resiliency sweep uses it.
    """
    if spec.kind not in ACTIVATION_FAULT_KINDS:
        raise FaultModelError(
            f"fault_session needs an activation fault kind, "
            f"got {spec.kind!r}")
    session = FaultSession(spec, network)
    _quantized.set_fault_hook(session)
    try:
        yield session
    finally:
        _quantized.set_fault_hook(None)


def fault_network(network: QuantizedNetwork, spec: FaultSpec,
                  ) -> tuple[QuantizedNetwork, int]:
    """A clone of *network* with faulted effective-weight words.

    Only synapse-carrying layers (dense / conv) are perturbed; their
    ``w_int`` arrays hold the *effective* weights, so for ASM designs
    this faults exactly the remapped CSHM table values.  Returns the
    clone and the total number of faulted words.
    """
    if spec.kind not in WEIGHT_FAULT_KINDS:
        raise FaultModelError(
            f"fault_network needs a weight fault kind, got {spec.kind!r}")
    clone = copy.copy(network)
    layers = []
    injected = 0
    for index, layer in enumerate(network.layers):
        if hasattr(layer, "w_int"):
            faulted = copy.copy(layer)
            faulted.w_int, count = fault_weight_array(
                layer.w_int, layer.w_fmt.total_bits, spec, index)
            injected += count
            layers.append(faulted)
        else:
            layers.append(layer)
    clone.layers = layers
    if injected and obs.enabled():
        obs.registry().counter(
            "faults.injected", kind=spec.kind).inc(injected)
    return clone, injected


def faulted_accuracy(network: QuantizedNetwork, spec: FaultSpec,
                     x: np.ndarray, labels: np.ndarray,
                     batch_size: int = DEFAULT_EVAL_BATCH,
                     ) -> tuple[float, int]:
    """Accuracy of *network* under *spec*; returns ``(accuracy, injected)``.

    Deterministic in ``(network, spec, x, labels)`` alone: independent
    of *batch_size* and of the network's kernel backend.
    """
    if spec.rate == 0.0:
        return network.accuracy(x, labels, batch_size=batch_size), 0
    if spec.kind in WEIGHT_FAULT_KINDS:
        faulted, injected = fault_network(network, spec)
        return faulted.accuracy(x, labels, batch_size=batch_size), injected
    with fault_session(spec, network) as session:
        accuracy = network.accuracy(x, labels, batch_size=batch_size)
    return accuracy, session.injected
