"""Training kernels: the forward / backward / update hot loop.

Every ``repro explore`` candidate and every rung of Algorithm 2's
constrained-retraining ladder pays for float training from scratch, so
the per-batch loop in :mod:`repro.nn` is the slowest remaining stage
(ROADMAP).  This module gives it the same two-backend treatment the
inference, simulation and projection kernels already have:

``reference``
    The per-layer loops of :mod:`repro.nn.layers`,
    :class:`~repro.nn.network.Sequential` and
    :class:`~repro.nn.optim.SGD` extracted verbatim — ground truth, and
    byte-for-byte the behaviour every existing cached stage result was
    produced by.

``fast``
    A compiled per-network *training plan*.  All buffers (pre-
    activations, activations, gradients, im2col column matrices) are
    allocated once per ``(layer, batch shape)`` and reused across
    batches; the activation derivative is fused from the *cached
    activation output* instead of re-evaluating the activation on the
    cached pre-activation; the gradient GEMMs and reductions write into
    preallocated outputs; the momentum SGD update runs in place.  Every
    transformation is exact in IEEE-754 float64:

    * ufuncs with ``out=`` perform the identical elementwise operation,
      only the destination changes;
    * ``sigmoid'(z) = s(1-s)`` evaluated as ``(1-a)*a`` on the cached
      output ``a == sigmoid(z)`` is the same two ops (multiplication is
      commutative in IEEE-754, including rounding), and likewise
      ``tanh'(z) = 1-a*a`` and ``relu'(z) = (a > 0)``;
    * ``im2col`` becomes a cached gather (pure data movement) and
      ``col2im`` keeps the reference scatter-accumulate loop order;
    * the sigmoid is ``e = exp(-|z|)``, then ``1/(1+e)`` where
      ``z >= 0`` and ``e/(1+e)`` elsewhere, with no boolean-mask gather
      or scatter: ``-|z|`` is ``-z`` for ``z >= 0`` and ``z`` for
      ``z < 0`` (``exp(-0.0) == exp(+0.0)`` covers ``z = -0.0``) and
      ``np.exp`` is elementwise, so every element takes the operations
      of :meth:`Sigmoid.forward`'s branch for it (NaN inputs aside).
      The numerator is the branch-free ``maximum(e, z >= 0)``: 1 where
      ``z >= 0``, since there ``e = exp(-z) <= exp(0) == 1``, and ``e``
      elsewhere, since ``e >= 0``;
    * ``v = m*v - r*g; p = p + v`` becomes ``v *= m; v -= r*g; p += v``
      — the same multiply / multiply / subtract / add per element.

    Layer types or activations outside the planned set fall back to the
    layer's own ``forward``/``backward`` per layer, so the backend is
    bit-identical to ``reference`` unconditionally.

Input-gradient contract
    ``train_backward(network, grad, input_grad=True)`` returns the
    gradient with respect to the network input, as
    :meth:`Sequential.backward` always has.  With ``input_grad=False``
    both backends stop once the lowest layer with parameters has filled
    its ``grads`` and return ``None``: a training step never reads the
    input gradient.  The reference still calls each visited layer's
    ``backward`` verbatim (the layers below are skipped); the fast plans
    skip the lowest layer's input-gradient work — the dense
    ``grad_z @ W.T`` GEMM, or the conv ``bop,ok->bpk`` contraction and
    its col2im loop.  Every layer's ``grads`` are bitwise the same
    either way, because no parameter gradient depends on a gradient
    computed below it.

Plans live on the layer objects (``layer._train_cache``) exactly like
the inference-kernel caches, and never capture parameter *arrays* —
both the reference SGD update and the reference projection kernel
rebind ``layer.params[key]`` to fresh arrays, so parameters are
re-fetched on every call.

The bit-identity claim is enforced by ``tests/test_train_backends.py``
(full ``TrainHistory`` + final-state ``tobytes()`` equality) and the
``bench_training_epoch`` benchmark's in-bench assertions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "train_forward_reference", "train_backward_reference",
    "sgd_update_reference", "train_forward_fast", "train_backward_fast",
    "sgd_update_fast",
]


# ----------------------------------------------------------------------
# reference kernels: the repro.nn loops, verbatim
# ----------------------------------------------------------------------
def train_forward_reference(network, x: np.ndarray,
                            training: bool = True) -> np.ndarray:
    """The original :meth:`Sequential.forward` layer loop."""
    for layer in network.layers:
        x = layer.forward(x, training=training)
    return x


def _backward_layers(network, input_grad: bool) -> list:
    """The layers a backward pass visits, top layer first: all of them,
    or without *input_grad* those down to the lowest with parameters."""
    layers = network.layers
    if not input_grad:
        lowest = next((index for index, layer in enumerate(layers)
                       if layer.is_trainable), len(layers))
        layers = layers[lowest:]
    return layers[::-1]


def train_backward_reference(network, grad: np.ndarray,
                             input_grad: bool = True) -> np.ndarray | None:
    """The original :meth:`Sequential.backward` layer loop (see the
    module docstring for *input_grad*)."""
    for layer in _backward_layers(network, input_grad):
        grad = layer.backward(grad)
    return grad if input_grad else None


def sgd_update_reference(network, velocity: dict, rate: float,
                         momentum: float) -> None:
    """The original :meth:`SGD.step` body (fresh arrays per slot)."""
    for index, layer in enumerate(network.layers):
        if not layer.is_trainable:
            continue
        for key, grad in layer.grads.items():
            slot = (index, key)
            slot_velocity = velocity.get(slot)
            if slot_velocity is None:
                slot_velocity = np.zeros_like(grad)
            slot_velocity = momentum * slot_velocity - rate * grad
            velocity[slot] = slot_velocity
            layer.params[key] = layer.params[key] + slot_velocity


# ----------------------------------------------------------------------
# fast kernels: per-(layer, batch shape) training plans
# ----------------------------------------------------------------------
def _train_cache(layer) -> dict:
    cache = layer.__dict__.get("_train_cache")
    if cache is None:
        cache = layer.__dict__["_train_cache"] = {}
    return cache


def _nn():
    """Lazy :mod:`repro.nn` namespace (keeps kernel imports acyclic)."""
    from repro.nn import activations, layers
    return activations, layers


# Concrete activation classes, resolved once on first use (the lazy
# import keeps kernel imports acyclic; per-call imports would dominate
# small-batch steps).  The derivative-from-output fusion identities are
# proven for these exact classes only; a subclass overriding ``forward``
# would silently break them, so checks are on the concrete type.
_IDENTITY = _SIGMOID = _TANH = _RELU = None


def _resolve_activations() -> None:
    global _IDENTITY, _SIGMOID, _TANH, _RELU
    activations, _ = _nn()
    _IDENTITY = activations.Identity
    _SIGMOID = activations.Sigmoid
    _TANH = activations.Tanh
    _RELU = activations.ReLU


def _fused_activation(activation) -> bool:
    """True when the derivative can be fused from the cached output."""
    if _IDENTITY is None:
        _resolve_activations()
    return type(activation) in (_IDENTITY, _SIGMOID, _TANH, _RELU)


def _activation_forward(activation, z: np.ndarray, out: np.ndarray,
                        scratch: np.ndarray) -> np.ndarray:
    """``activation.forward(z)`` written into *out* (or ``z`` itself for
    the identity, matching the reference's pass-through); *scratch* is
    a buffer of ``z``'s shape the sigmoid may overwrite."""
    kind = type(activation)
    if kind is _IDENTITY:
        return z
    if kind is _TANH:
        return np.tanh(z, out=out)
    if kind is _RELU:
        return np.maximum(z, 0.0, out=out)
    # Sigmoid.forward's two branches, branch-free (module docstring):
    # 1/(1+e) where z >= 0 and e/(1+e) elsewhere, e = exp(-|z|)
    e = np.abs(z, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(1.0, e, out=out)
    np.maximum(e, z >= 0, out=e)
    return np.divide(e, out, out=out)


def _activation_backward(activation, a: np.ndarray, grad_out: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """``grad_out * activation.derivative(z)`` from the cached output.

    ``a`` is bitwise what ``activation.forward(z)`` returned, so the
    derivative-from-output identities below reproduce the reference
    values exactly (IEEE-754 multiplication is commutative).
    """
    kind = type(activation)
    if kind is _IDENTITY:
        return np.multiply(grad_out, 1.0, out=out)
    if kind is _RELU:
        return np.multiply(grad_out, a > 0, out=out)
    if kind is _TANH:
        np.multiply(a, a, out=out)
        np.subtract(1.0, out, out=out)
        out *= grad_out
        return out
    # Sigmoid: s * (1 - s) == (1 - a) * a
    np.subtract(1.0, a, out=out)
    out *= a
    out *= grad_out
    return out


class _DensePlan:
    """Preallocated buffers for one (Dense layer, batch size)."""

    def __init__(self, layer, batch: int) -> None:
        n_in, n_out = layer.in_features, layer.out_features
        self.z = np.empty((batch, n_out))
        self.a = np.empty((batch, n_out))
        self.d = np.empty((batch, n_out))
        self.gw = np.empty((n_in, n_out))
        self.gb = np.empty(n_out)
        self.gx = np.empty((batch, n_in))
        self.x: np.ndarray | None = None
        self.out: np.ndarray | None = None

    def forward(self, layer, x: np.ndarray) -> np.ndarray:
        np.matmul(x, layer.params["W"], out=self.z)
        self.z += layer.params["b"]
        self.x = x
        self.out = _activation_forward(layer.activation, self.z, self.a,
                                       self.d)
        return self.out

    def backward(self, layer, grad_out: np.ndarray,
                 input_grad: bool) -> np.ndarray | None:
        grad_z = _activation_backward(layer.activation, self.out,
                                      grad_out, self.d)
        np.matmul(self.x.T, grad_z, out=self.gw)
        np.sum(grad_z, axis=0, out=self.gb)
        layer.grads = {"W": self.gw, "b": self.gb}
        if not input_grad:
            return None
        np.matmul(grad_z, layer.params["W"].T, out=self.gx)
        return self.gx


class _ConvPlan:
    """Preallocated buffers + gather plan for one (Conv2D, input shape)."""

    def __init__(self, layer, x_shape: tuple[int, ...]) -> None:
        from repro.nn.conv_utils import conv_output_size

        batch, channels, height, width = x_shape
        k = layer.kernel
        out_h = conv_output_size(height, k)
        out_w = conv_output_size(width, k)
        oc = layer.out_channels
        self.x_shape = x_shape
        self.out_h, self.out_w = out_h, out_w
        # gather indices: cols[b, p, q] == x[b].ravel()[idx[p, q]] with
        # p = ph*out_w + pw and q = c*k*k + di*k + dj — exactly the
        # element im2col's transpose/reshape copies there.
        ph, pw = np.divmod(np.arange(out_h * out_w), out_w)
        c, rest = np.divmod(np.arange(channels * k * k), k * k)
        di, dj = np.divmod(rest, k)
        self.idx = (c[None, :] * (height * width)
                    + (ph[:, None] + di[None, :]) * width
                    + (pw[:, None] + dj[None, :]))
        positions = out_h * out_w
        self.cols = np.empty((batch, positions, channels * k * k))
        # z/a keep the reference memory layout: the reference forward
        # returns `act(z.transpose(0, 2, 1).reshape(...))`, a *strided*
        # array (ufuncs preserve input layout), and downstream
        # reductions group partial sums by memory order — a C-contiguous
        # twin would flip low-order bits in the next layer's pooling.
        self.z3 = np.empty((batch, positions, oc))
        self.z4 = self.z3.transpose(0, 2, 1).reshape(
            batch, oc, out_h, out_w)
        self._a3 = np.empty((batch, positions, oc))
        self.a4 = self._a3.transpose(0, 2, 1).reshape(
            batch, oc, out_h, out_w)
        # grad_z mixes the strided z layout with the C-contiguous
        # upstream gradient, which numpy resolves to C order — so the
        # gradient buffers are plain C arrays like the reference's.
        self.d4 = np.empty((batch, oc, out_h, out_w))
        self.gw2 = np.empty((oc, channels * k * k))
        self.gb = np.empty(oc)
        self.gcols = np.empty((batch, positions, channels * k * k))
        self.gx = np.empty(x_shape)
        self.out: np.ndarray | None = None

    def forward(self, layer, x: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        np.take(x.reshape(batch, -1), self.idx, axis=1, out=self.cols)
        kernels = layer.params["W"].reshape(layer.out_channels, -1)
        np.matmul(self.cols, kernels.T, out=self.z3)
        self.z3 += layer.params["b"]
        self.out = _activation_forward(layer.activation, self.z4, self.a4,
                                       self.d4)
        return self.out

    def backward(self, layer, grad_out: np.ndarray,
                 input_grad: bool) -> np.ndarray | None:
        batch = grad_out.shape[0]
        grad_z = _activation_backward(layer.activation, self.out,
                                      grad_out, self.d4)
        flat = grad_z.reshape(batch, layer.out_channels, -1)
        np.einsum("bop,bpk->ok", flat, self.cols, out=self.gw2)
        grad_w = self.gw2.reshape(layer.params["W"].shape)
        if layer.connection_table is not None:
            grad_w *= layer.connection_table[:, :, None, None]
        np.sum(flat, axis=(0, 2), out=self.gb)
        layer.grads = {"W": grad_w, "b": self.gb}
        if not input_grad:
            return None
        kernels = layer.params["W"].reshape(layer.out_channels, -1)
        np.einsum("bop,ok->bpk", flat, kernels, out=self.gcols)
        # col2im with the buffer preallocated; the (di, dj) loop order is
        # the reference accumulation order and must stay.
        k = layer.kernel
        out_h, out_w = self.out_h, self.out_w
        channels = self.x_shape[1]
        blocks = self.gcols.reshape(batch, out_h, out_w, channels, k, k)
        self.gx.fill(0.0)
        for di in range(k):
            for dj in range(k):
                self.gx[:, :, di:di + out_h, dj:dj + out_w] += \
                    blocks[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
        return self.gx


class _PoolPlan:
    """Preallocated buffers for one (ScaledAvgPool2D, input shape)."""

    def __init__(self, layer, x: np.ndarray) -> None:
        batch, channels, height, width = x.shape
        s = layer.size
        self.x_shape = x.shape
        out_shape = (batch, channels, height // s, width // s)
        # The forward-side buffers must carry the memory layout numpy
        # would give a fresh `x6.mean(axis=(3, 5))` for THIS input: when
        # x is the strided view a conv layer returns, the mean output
        # follows that layout, and the reduction groups partial sums
        # differently for a C-contiguous destination.  One throwaway
        # mean at plan-build time captures the exact layout.
        proto = x.reshape(batch, channels, height // s, s,
                          width // s, s).mean(axis=(3, 5))
        self.pooled = np.empty_like(proto)
        self.z = np.empty_like(proto)
        self.a = np.empty_like(proto)
        # gradient-side buffers are C like the reference's: grad_z mixes
        # the C-contiguous upstream gradient with the strided activation
        # layout, which numpy resolves to C order.
        self.d = np.empty(out_shape)
        self.tmp = np.empty(out_shape)
        self.gp = np.empty(out_shape)
        self.ggain = np.empty(channels)
        self.gbias = np.empty(channels)
        self.gx = np.empty(x.shape)
        self.out: np.ndarray | None = None

    def forward(self, layer, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = self.x_shape
        s = layer.size
        x6 = x.reshape(batch, channels, height // s, s, width // s, s)
        np.mean(x6, axis=(3, 5), out=self.pooled)
        np.multiply(self.pooled, layer.params["gain"][:, None, None],
                    out=self.z)
        np.add(self.z, layer.params["bias"][:, None, None], out=self.z)
        self.out = _activation_forward(layer.activation, self.z, self.a,
                                       self.d)
        return self.out

    def backward(self, layer, grad_out: np.ndarray,
                 input_grad: bool) -> np.ndarray | None:
        batch, channels, height, width = self.x_shape
        s = layer.size
        grad_z = _activation_backward(layer.activation, self.out,
                                      grad_out, self.d)
        np.multiply(grad_z, self.pooled, out=self.tmp)
        np.sum(self.tmp, axis=(0, 2, 3), out=self.ggain)
        np.sum(grad_z, axis=(0, 2, 3), out=self.gbias)
        layer.grads = {"gain": self.ggain, "bias": self.gbias}
        if not input_grad:
            return None
        np.multiply(grad_z, layer.params["gain"][:, None, None],
                    out=self.gp)
        self.gp /= (s * s)
        # np.repeat x2 == broadcast copy into the strided 6-D view
        gx6 = self.gx.reshape(batch, channels, height // s, s,
                              width // s, s)
        gx6[...] = self.gp[:, :, :, None, :, None]
        return self.gx


#: Cached "this (layer, input) combination falls back" decision.
_FALLBACK = object()


def _build_plan(layer, x: np.ndarray):
    """Plan instance for ``(layer, x)``, or ``_FALLBACK`` (slow path).

    Plans require the float64 substrate and a built-in activation whose
    derivative-from-output fusion is proven exact; anything else runs
    the layer's own ``forward``/``backward`` (bit-identical by
    definition, merely unaccelerated).
    """
    _, layers = _nn()
    kind = type(layer)
    if kind not in (layers.Dense, layers.Conv2D, layers.ScaledAvgPool2D):
        return _FALLBACK
    if x.dtype != np.float64 or not _fused_activation(layer.activation):
        return _FALLBACK
    if any(p.dtype != np.float64 for p in layer.params.values()):
        return _FALLBACK
    if kind is layers.Dense:
        if x.ndim != 2 or x.shape[1] != layer.in_features:
            return _FALLBACK
        return _DensePlan(layer, x.shape[0])
    if kind is layers.Conv2D:
        if x.ndim != 4 or x.shape[1] != layer.in_channels \
                or x.shape[2] < layer.kernel or x.shape[3] < layer.kernel:
            return _FALLBACK
        return _ConvPlan(layer, x.shape)
    if x.ndim != 4 or x.shape[1] != layer.channels \
            or x.shape[2] % layer.size or x.shape[3] % layer.size:
        return _FALLBACK
    return _PoolPlan(layer, x)


def _plan_for(layer, x: np.ndarray):
    """The layer's cached plan for this input, or ``None`` to fall back.

    Decisions (including fallbacks) are memoized per (shape, strides,
    dtype): buffer layouts mirror the input's memory layout (see
    _PoolPlan), and the strides/dtype of the array a given layer sees
    for one shape are fixed by the preceding layer.  Parameter dtypes
    are revalidated on every hit — the projection hook rebinds
    ``layer.params[key]``, and a swap to a non-float64 array must drop
    back to the reference loop.
    """
    cache = _train_cache(layer)
    key = (x.shape, x.strides, x.dtype)
    plan = cache.get(key)
    if plan is None:
        plan = cache[key] = _build_plan(layer, x)
    if plan is _FALLBACK:
        return None
    for p in layer.params.values():
        if p.dtype != np.float64:
            return None
    return plan


def train_forward_fast(network, x: np.ndarray,
                       training: bool = True) -> np.ndarray:
    """Planned forward pass; remembers each layer's active plan so the
    matching :func:`train_backward_fast` reads the right buffers."""
    for layer in network.layers:
        plan = _plan_for(layer, x)
        _train_cache(layer)["active"] = plan
        if plan is None:
            x = layer.forward(x, training=training)
        else:
            x = plan.forward(layer, x)
    return x


def train_backward_fast(network, grad: np.ndarray,
                        input_grad: bool = True) -> np.ndarray | None:
    """Planned backward pass; without *input_grad* the lowest layer's
    plan skips its input-gradient work (module docstring)."""
    layers = _backward_layers(network, input_grad)
    for depth, layer in enumerate(layers, start=1):
        plan = _train_cache(layer).get("active")
        if plan is None:
            grad = layer.backward(grad)
        else:
            grad = plan.backward(layer, grad,
                                 input_grad or depth < len(layers))
    return grad if input_grad else None


def sgd_update_fast(network, velocity: dict, rate: float,
                    momentum: float) -> None:
    """In-place momentum update: same elementwise ops as the reference
    (``v*m`` and ``g*r`` are commutative products), zero allocations
    after the first batch."""
    for index, layer in enumerate(network.layers):
        if not layer.is_trainable:
            continue
        cache = _train_cache(layer)
        scratches = cache.get("sgd")
        if scratches is None:
            scratches = cache["sgd"] = {}
        for key, grad in layer.grads.items():
            slot = (index, key)
            slot_velocity = velocity.get(slot)
            if slot_velocity is None:
                slot_velocity = velocity[slot] = np.zeros_like(grad)
            scratch = scratches.get(key)
            if scratch is None or scratch.shape != grad.shape:
                scratch = scratches[key] = np.empty_like(grad)
            slot_velocity *= momentum
            np.multiply(grad, rate, out=scratch)
            slot_velocity -= scratch
            layer.params[key] += slot_velocity
