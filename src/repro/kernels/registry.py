"""The kernel-backend registry.

A :class:`KernelBackend` bundles one implementation of every compute
kernel the engine models need — the forward kernels (input quantisation,
dense, conv (im2col), scaled-average pool, requantisation), the
cycle-accurate **simulation** kernel (toggle counting for the
:class:`~repro.hardware.simulator.CycleAccurateEngine`) and the
**projection** kernel (the constrained-retraining weight snap of
:class:`~repro.training.constrained.ConstraintProjector`).  Two are
built in:

``"reference"``
    Exact integer arithmetic: int64 accumulation, the bit-accurate
    software twin of the paper's Verilog processing engine.  This is the
    ground truth every other backend is measured against.
``"fast"``
    The BLAS lowering: activation codes and folded weights are carried as
    float64 integers and the accumulation runs through ``dgemm``, which is
    *bit-exact* whenever the layer's accumulator bound stays below
    ``2**53`` (see :mod:`repro.kernels.fast`).  Layers that fail the bound
    fall back to the reference kernels per layer, so the backend as a
    whole is always bit-identical to ``reference``.
``"auto"``
    The selection policy, not a third implementation: resolve to the
    fastest backend that preserves bit-exactness — today, ``fast``.

Backends are stateless singletons; per-layer precomputations (folded
float weight matrices, exactness decisions) are cached on the layer
objects themselves, so two networks sharing layers share the caches.

This module must stay import-light (no ``repro.nn`` / ``repro.asm``
imports): the layer stack in :mod:`repro.nn.quantized` imports it at
module level.
"""

from __future__ import annotations

__all__ = ["KernelBackend", "KernelBackendError", "BACKEND_NAMES",
           "register_backend", "get_backend"]

#: Names :func:`get_backend` accepts (``auto`` is the selection policy).
BACKEND_NAMES = ("reference", "fast", "auto")


class KernelBackendError(ValueError):
    """Unknown backend name or duplicate registration."""


class KernelBackend:
    """Interface of one compute-kernel implementation.

    The ``layer`` arguments are the quantised layer objects of
    :mod:`repro.nn.quantized` (``_QuantDense`` / ``_QuantConv`` /
    ``_QuantPool``); backends read their folded integer arrays, formats,
    activation and LUT but never mutate them (beyond attaching caches).
    Every kernel returns ``(codes, fmt)`` exactly like the layer
    ``forward`` contract: activation codes in the activation format, or
    ``(real_scores, None)`` for the output layer.
    """

    #: Registry name; also reported by :attr:`QuantizedNetwork.backend`.
    name = "base"

    def quantize_input(self, x, fmt):
        """Float inputs → activation codes in the backend's carrier dtype."""
        raise NotImplementedError

    def dense(self, layer, x, x_fmt):
        raise NotImplementedError

    def conv(self, layer, x, x_fmt):
        raise NotImplementedError

    def pool(self, layer, x, x_fmt):
        raise NotImplementedError

    def lowering(self, layer) -> str:
        """How this backend runs *layer*: ``"integer"`` or ``"blas"``."""
        return "integer"

    # -- simulation / projection kernel families -----------------------
    def simulate_layer(self, weights, inputs, units, bank_multiples):
        """Toggle-count one dense-layer evaluation on the CSHM cluster.

        *weights* is the ``(fan_in, neurons)`` effective-weight matrix,
        *inputs* a length-``fan_in`` int64 activation vector, *units*
        the MAC lane count and *bank_multiples* the pre-computer bank's
        alphabet entries ``> 1``.  Returns a
        :class:`~repro.kernels.simulate.SimCounts`; all backends count
        identical toggles (asserted in ``tests/test_sim_backends.py``).
        """
        raise NotImplementedError

    def project_weights(self, weights, bits, constrainer, cache):
        """Snap a float weight tensor onto its constrained grid.

        The quantise -> constrain-LUT -> dequantise round trip run after
        every optimiser step of a constrained retrain.  *cache* is a
        per-(layer, parameter) dict a backend may use for memoized
        formats and scratch buffers; *constrainer* is duck-typed
        (``constrain_array`` / ``table`` / ``layout.max_magnitude``).
        Returns the projected tensor (backends may write in place); all
        backends produce bit-identical values.
        """
        raise NotImplementedError

    # -- training kernel family ----------------------------------------
    def train_forward(self, network, x, training=True):
        """One float forward pass over a :class:`~repro.nn.network.
        Sequential` (training caches enabled when *training*).

        Dispatched by ``Sequential.forward`` per the network's train
        backend; all backends return bit-identical outputs and leave
        bit-identical backward state (see
        :mod:`repro.kernels.training`).
        """
        raise NotImplementedError

    def train_backward(self, network, grad, input_grad=True):
        """Backpropagate *grad* through the last ``train_forward`` pass,
        filling every layer's ``grads`` and returning the input
        gradient — or, when not *input_grad*, stopping once the lowest
        layer with parameters has its ``grads`` and returning ``None``
        (:mod:`repro.kernels.training`)."""
        raise NotImplementedError

    def sgd_update(self, network, velocity, rate, momentum):
        """Apply one momentum-SGD update from each layer's ``grads``.

        *velocity* is the optimiser's ``(layer index, key) -> array``
        state dict; backends may update the arrays in place but must
        produce bit-identical parameters and velocities.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelBackend {self.name}>"


_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(name: str, backend: KernelBackend,
                     replace: bool = False) -> None:
    """Register *backend* under *name* (``replace=True`` to override)."""
    if name in _REGISTRY and not replace:
        raise KernelBackendError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend


def get_backend(name: str | KernelBackend = "auto") -> KernelBackend:
    """Resolve a backend name (or pass an instance through).

    ``"auto"`` resolves to the fastest registered backend whose results
    are guaranteed bit-identical to ``"reference"`` — currently
    ``"fast"``, whose kernels fall back per layer wherever the float64
    exactness bound fails.
    """
    if isinstance(name, KernelBackend):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KernelBackendError(
            f"unknown kernel backend {name!r}; choose from "
            f"{sorted(_REGISTRY)}") from None
