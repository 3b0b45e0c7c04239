"""Sequential network container.

Holds an ordered list of layers, runs forward/backward passes, computes
classification accuracy, snapshots/restores parameters (the restore point of
Algorithm 2) and exports the compute topology the hardware engine costs.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.engine import NetworkTopology
from repro.kernels.evaluate import DEFAULT_EVAL_BATCH, batched_accuracy
from repro.kernels.registry import KernelBackend, get_backend
from repro.nn.layers import Layer

__all__ = ["Sequential"]


class Sequential:
    """An ordered stack of layers forming a feedforward network.

    ``input_spatial`` (e.g. ``(32, 32)``) must be given for networks whose
    first compute layer is a convolution; it seeds the spatial-size tracking
    used when exporting the hardware topology and counting neurons.
    """

    def __init__(self, layers: list[Layer], name: str = "network",
                 input_spatial: tuple[int, int] | None = None) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = list(layers)
        self.name = name
        self.input_spatial = input_spatial
        # the training-kernel backend (repro.kernels); "reference" is
        # the historical per-layer loop, so direct users see byte-for-
        # byte the old behaviour until they (or PipelineConfig's
        # backend knob) opt into the planned fast path — which is
        # bit-identical anyway.
        self._train_kernel: KernelBackend = get_backend("reference")

    # ------------------------------------------------------------------
    # inference / training passes
    # ------------------------------------------------------------------
    @property
    def train_kernel(self) -> KernelBackend:
        """The resolved training-kernel backend instance (its ``name``
        is the registry name)."""
        return self._train_kernel

    def set_train_backend(self, name: str | KernelBackend) -> None:
        """Select the training kernels ("reference" | "fast" | "auto").

        All backends are bit-identical (``tests/test_train_backends.py``);
        the choice is a speed knob and stays out of every stage cache
        key, exactly like the inference/simulation backends.
        """
        self._train_kernel = get_backend(name)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self._train_kernel.train_forward(self, x, training)

    def backward(self, grad: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Fill every layer's ``grads`` from the output gradient *grad*;
        returns the input gradient, or ``None`` when *input_grad* is off
        and the backward pass stops at the lowest trainable layer."""
        return self._train_kernel.train_backward(self, grad, input_grad)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class index per sample (argmax over the output layer)."""
        return np.argmax(self.forward(x, training=False), axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray,
                 batch_size: int = DEFAULT_EVAL_BATCH) -> float:
        """Classification accuracy on ``(x, integer labels)``, batched so
        large test sets do not blow up memory."""
        return batched_accuracy(self.predict, x, labels,
                                batch_size=batch_size)

    # ------------------------------------------------------------------
    # parameter management
    # ------------------------------------------------------------------
    @property
    def trainable_layers(self) -> list[Layer]:
        return [layer for layer in self.layers if layer.is_trainable]

    @property
    def num_params(self) -> int:
        """Trainable parameter count — Table IV's synapse totals."""
        return sum(layer.num_params for layer in self.layers)

    @property
    def num_neurons(self) -> int:
        """Neuron count as Table IV counts it (outputs of every compute
        layer; input nodes excluded)."""
        return self.topology().total_neurons

    def state(self) -> list[dict[str, np.ndarray]]:
        """Deep copy of all parameters (Algorithm 2's restore point)."""
        return [layer.state() for layer in self.layers]

    def load_state(self, state: list[dict[str, np.ndarray]]) -> None:
        if len(state) != len(self.layers):
            raise ValueError(
                f"state has {len(state)} layers, network has "
                f"{len(self.layers)}"
            )
        for layer, entry in zip(self.layers, state):
            layer.load_state(entry)

    def save(self, path: str) -> None:
        """Serialise parameters to an ``.npz`` file."""
        arrays = {}
        for index, layer in enumerate(self.layers):
            for key, value in layer.params.items():
                arrays[f"{index}:{key}"] = value
        np.savez(path, **arrays)

    def load(self, path: str) -> None:
        """Restore parameters written by :meth:`save`."""
        with np.load(path) as data:
            for index, layer in enumerate(self.layers):
                for key in layer.params:
                    layer.load_state({key: data[f"{index}:{key}"]})

    # ------------------------------------------------------------------
    # topology export for the hardware engine
    # ------------------------------------------------------------------
    def topology(self) -> NetworkTopology:
        """Export compute demand for
        :class:`repro.hardware.engine.ProcessingEngine`."""
        return NetworkTopology.of(self.name, self.layers, self.input_spatial)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(layer.name for layer in self.layers)
        return f"<Sequential {self.name}: {inner}>"
