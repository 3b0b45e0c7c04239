"""Serving stack: compiled artifacts, model registry, batching, HTTP front end.

The :mod:`repro.pipeline` stages train, constrain and evaluate networks
in one shot; this package turns the result into a deployable artifact
and serves it:

``repro.serving.artifact``
    Versioned on-disk bundle (``manifest.json`` + ``arrays.npz``) holding a
    :class:`~repro.nn.quantized.QuantizedNetwork`'s pre-folded effective
    integer weights, quantisation spec and integrity hashes.
``repro.serving.compiled``
    :class:`CompiledModel` — the one bundle reader: loads a bundle straight
    into contiguous integer matrices, bit-identical to the exported
    network; no constrainer/multiplier table rebuilds on the load path.
``repro.serving.registry``
    Named, versioned multi-model registry for one serving process.
``repro.serving.batching``
    Dynamic micro-batching queue coalescing single requests into batched
    integer-matmul forward passes.
``repro.serving.metrics``
    Throughput/latency/queue-depth counters plus the paper's energy story
    (estimated nJ per inference via :mod:`repro.hardware.engine`).
``repro.serving.server``
    Stdlib HTTP front end behind ``repro serve``.
"""

from repro.serving.artifact import (
    ArtifactError,
    ArtifactIntegrityError,
    read_manifest,
    save_artifact,
)
from repro.serving.batching import (
    BatchSettings,
    DeadlineExceededError,
    MicroBatcher,
    QueueFullError,
)
from repro.serving.compiled import CompiledModel
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelEntry, ModelRegistry, default_registry
from repro.serving.server import create_server, main

__all__ = [
    "ArtifactError", "ArtifactIntegrityError",
    "read_manifest", "save_artifact",
    "BatchSettings", "MicroBatcher",
    "QueueFullError", "DeadlineExceededError",
    "CompiledModel",
    "ServingMetrics",
    "ModelEntry", "ModelRegistry", "default_registry",
    "create_server", "main",
]
