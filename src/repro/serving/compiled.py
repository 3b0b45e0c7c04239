"""Compiled models: the serving-side view of an exported network.

A :class:`CompiledModel` is the one reader of an artifact bundle: it loads
the bundle straight into contiguous integer weight matrices.  The ASM
effective-weight remap was folded in at export time, so a forward pass is
pure batched integer matmul plus the activation/requantisation
arithmetic, and the load path builds no multiplier or constrainer table.

Compilation is backend selection: the layer stack is the same one
:class:`~repro.nn.quantized.QuantizedNetwork` runs, driven by the ``fast``
kernel backend of :mod:`repro.kernels` — BLAS in float64 wherever the
``2**53`` accumulator bound proves that exact, the reference integer
kernels per layer otherwise (see ``docs/backends.md``).  Compiled outputs
are therefore bit-identical to
:meth:`repro.nn.quantized.QuantizedNetwork.forward` (asserted in
``tests/test_serving.py``, ``tests/test_kernels.py`` and
``benchmarks/bench_kernels_backends.py``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.fixedpoint.qformat import QFormat
from repro.hardware.engine import NetworkTopology, ProcessingEngine
from repro.kernels import DEFAULT_EVAL_BATCH, batched_accuracy, get_backend
from repro.kernels.registry import KernelBackend
from repro.serving.artifact import _load_arrays, build_layers, read_manifest

__all__ = ["CompiledModel"]


class CompiledModel:
    """An immutable, inference-only model compiled from an artifact bundle.

    Construct with :meth:`load`.  ``forward``/``predict`` accept float
    input batches exactly like
    :class:`~repro.nn.quantized.QuantizedNetwork`.
    """

    def __init__(self, layers: list, act_fmt: QFormat,
                 manifest: dict[str, Any],
                 backend: str | KernelBackend = "fast") -> None:
        self.layers = list(layers)
        self.act_fmt = act_fmt
        self.manifest = manifest
        self._backend = get_backend(backend)
        self._energy_nj: float | None = None
        self._energy_known = False

    @classmethod
    def load(cls, path: str) -> "CompiledModel":
        """Load and integrity-check the bundle at *path*."""
        manifest = read_manifest(path)
        arrays = _load_arrays(path, manifest)
        layers, act_fmt = build_layers(manifest, arrays)
        return cls(layers, act_fmt, manifest)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.manifest["model_name"]

    @property
    def bits(self) -> int:
        return int(self.manifest["bits"])

    @property
    def spec_label(self) -> str:
        return self.manifest.get("spec_label", f"{self.bits}b")

    @property
    def input_spatial(self) -> tuple[int, int] | None:
        spatial = self.manifest.get("input_spatial")
        return tuple(spatial) if spatial else None

    @property
    def backend(self) -> str:
        """Name of the kernel backend this model was compiled for."""
        return self._backend.name

    @property
    def lowerings(self) -> tuple[str, ...]:
        """Per-compute-layer lowering the backend chose (``"blas"`` /
        ``"integer"``); the observability hook for the fallback policy."""
        return tuple(self._backend.lowering(layer) for layer in self.layers
                     if layer.kind != "flatten")

    @property
    def num_params(self) -> int:
        """Deployed parameter count (integer weight/gain tables + biases)."""
        total = 0
        for layer in self.layers:
            if layer.kind in ("dense", "conv"):
                total += layer.w_int.size + layer.bias.size
            elif layer.kind == "pool":
                total += layer.gain_int.size + layer.bias.size
        return total

    # ------------------------------------------------------------------
    # inference (same layer stack as QuantizedNetwork, fast backend)
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw output scores for a float input batch (bit-identical to the
        exported :class:`QuantizedNetwork`)."""
        backend = self._backend
        codes = backend.quantize_input(x, self.act_fmt)
        fmt = self.act_fmt
        for layer in self.layers:
            codes, fmt = layer.forward(codes, fmt, backend)
        return codes

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x), axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray,
                 batch_size: int = DEFAULT_EVAL_BATCH) -> float:
        return batched_accuracy(self.predict, x, labels,
                                batch_size=batch_size)

    # ------------------------------------------------------------------
    # hardware cost (the paper's energy story, reported live by serving)
    # ------------------------------------------------------------------
    def topology(self) -> NetworkTopology:
        """Compute demand per inference, the same derivation as
        :meth:`repro.nn.network.Sequential.topology`."""
        return NetworkTopology.of(self.name, self.layers, self.input_spatial)

    def energy_per_inference_nj(self) -> float | None:
        """Estimated energy (nJ) for one inference on the CSHM engine.

        Mixed deployments are costed per layer with each layer's own
        multiplier.  ``None`` when the engine cannot cost this model
        (unsupported word width or a conv model exported without spatial
        metadata).
        """
        if not self._energy_known:
            try:
                multipliers = [layer.multiplier for layer in self.layers
                               if layer.kind != "flatten"]
                self._energy_nj = ProcessingEngine(self.bits).run(
                    self.topology(), layer_alphabets=multipliers).energy_nj
            except (KeyError, ValueError):
                self._energy_nj = None
            # set the flag only after the value is in place, so concurrent
            # readers never observe the un-computed None (worst case two
            # threads compute the same number)
            self._energy_known = True
        return self._energy_nj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CompiledModel {self.name}: {self.spec_label}, "
                f"{len(self.layers)} layers>")
