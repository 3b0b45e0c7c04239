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

The names below load their module on first use, so importing
``repro.serving.artifact`` or ``repro.serving.registry`` (all that the
pipeline's export and serve-check stages need) loads neither the HTTP
server, the batcher nor orjson.
"""

import importlib

#: each exported name, and the submodule that defines it
_MODULES = {
    "ArtifactError": "artifact", "ArtifactIntegrityError": "artifact",
    "read_manifest": "artifact", "save_artifact": "artifact",
    "BatchSettings": "batching", "MicroBatcher": "batching",
    "QueueFullError": "batching", "DeadlineExceededError": "batching",
    "CompiledModel": "compiled",
    "ServingMetrics": "metrics",
    "ModelEntry": "registry", "ModelRegistry": "registry",
    "default_registry": "registry",
    "create_server": "server", "main": "server",
}
__all__ = list(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULES[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
