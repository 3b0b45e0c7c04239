"""repro.kernels — the compute-kernel layer under every forward path.

One home for the dense / conv (im2col) / scaled-avg-pool / requantise
forward kernels, each with a **reference** implementation (exact integer
arithmetic — the bit-accurate software twin of the paper's processing
engine) and a **fast** implementation (BLAS in float64, provably exact
below the ``2**53`` accumulator bound, falling back per layer otherwise),
behind a small registry::

    from repro.kernels import get_backend
    backend = get_backend("auto")      # "reference" | "fast" | "auto"

Consumers select a backend rather than owning kernel code:
:class:`~repro.nn.quantized.QuantizedNetwork` dispatches its layer stack
to one (default ``reference``), :class:`~repro.serving.compiled
.CompiledModel` compiles by selecting ``fast``, and the pipeline /
explorer plumb a ``backend`` config field through every evaluate stage.
``backend="reference"`` and ``backend="fast"`` are bit-identical by
construction (see ``docs/backends.md`` and ``tests/test_kernels.py``).

Layering: this package depends only on numpy and ``repro.fixedpoint``
(it owns the im2col / col2im helpers in :mod:`repro.kernels.conv_utils`),
so ``repro.nn`` can import it freely.
"""

from repro.kernels.evaluate import DEFAULT_EVAL_BATCH, batched_accuracy
from repro.kernels.registry import (
    BACKEND_NAMES,
    KernelBackend,
    KernelBackendError,
    get_backend,
    register_backend,
)

# importing the implementation modules registers the built-in backends
from repro.kernels import reference as _reference  # noqa: E402,F401
from repro.kernels import fast as _fast            # noqa: E402,F401
from repro.kernels.fast import blas_exact, quantize_codes_f64
from repro.kernels.projection import quantize_constrain
from repro.kernels.reference import requantize
from repro.kernels.simulate import SimCounts

__all__ = [
    "BACKEND_NAMES", "KernelBackend", "KernelBackendError",
    "get_backend", "register_backend",
    "DEFAULT_EVAL_BATCH", "batched_accuracy",
    "blas_exact", "quantize_codes_f64", "requantize",
    "SimCounts", "quantize_constrain",
]
