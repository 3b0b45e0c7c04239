"""Trainable layers for the numpy NN substrate.

Each layer owns its parameters (``params`` dict) and the gradients from the
last backward pass (``grads`` dict).  ``forward(x, training=True)`` caches
whatever the backward pass needs; ``backward(grad_out)`` returns the
gradient with respect to the layer input.

The layer set covers everything Table IV requires:

* :class:`Dense` — fully connected with an activation,
* :class:`Conv2D` — valid stride-1 convolution with an optional LeNet-style
  connection table,
* :class:`ScaledAvgPool2D` — LeNet subsampling: average pooling with a
  trainable gain and bias per map,
* :class:`Flatten` — shape adapter between conv and dense stacks.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.conv_utils import col2im, conv_output_size, im2col
from repro.nn.activations import Activation, get_activation

__all__ = ["Layer", "Dense", "Conv2D", "ScaledAvgPool2D", "Flatten"]


class Layer:
    """Base class for all layers."""

    #: Layer tag shared with the quantised stack; the training plans, the
    #: quantiser and :meth:`~repro.hardware.engine.NetworkTopology.of`
    #: dispatch on it.
    kind = "base"

    def __init__(self, name: str) -> None:
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def num_params(self) -> int:
        """Trainable parameter count (Table IV's synapse numbers)."""
        return sum(p.size for p in self.params.values())

    @property
    def is_trainable(self) -> bool:
        return bool(self.params)

    def state(self) -> dict[str, np.ndarray]:
        """Copy of the parameters (for restore points, Algorithm 2 step 2)."""
        return {key: value.copy() for key, value in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for key, value in state.items():
            if key not in self.params:
                raise KeyError(f"layer {self.name} has no parameter {key!r}")
            if self.params[key].shape != value.shape:
                raise ValueError(
                    f"layer {self.name} parameter {key!r}: shape "
                    f"{value.shape} != {self.params[key].shape}"
                )
            self.params[key] = value.copy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Dense(Layer):
    """Fully connected layer: ``y = act(x W + b)``.

    Weight init is the classic fan-in-scaled uniform (LeCun), matching the
    era of the paper's baselines.
    """

    kind = "dense"

    def __init__(self, in_features: int, out_features: int,
                 activation: str | Activation = "sigmoid",
                 rng: np.random.Generator | None = None,
                 name: str | None = None) -> None:
        super().__init__(name or f"dense{in_features}x{out_features}")
        if in_features < 1 or out_features < 1:
            raise ValueError("dense layer needs positive dimensions")
        self.in_features = in_features
        self.out_features = out_features
        self.activation = get_activation(activation)
        rng = rng or np.random.default_rng(0)
        bound = 1.0 / np.sqrt(in_features)
        self.params = {
            "W": rng.uniform(-bound, bound, size=(in_features, out_features)),
            "b": np.zeros(out_features),
        }

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (batch, {self.in_features}), "
                f"got {x.shape}"
            )
        z = x @ self.params["W"] + self.params["b"]
        if training:
            self._cache = {"x": x, "z": z}
        return self.activation.forward(z)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, z = self._cache["x"], self._cache["z"]
        grad_z = grad_out * self.activation.derivative(z)
        self.grads = {
            "W": x.T @ grad_z,
            "b": grad_z.sum(axis=0),
        }
        return grad_z @ self.params["W"].T


class Conv2D(Layer):
    """Valid stride-1 convolution with optional connection table.

    ``connection_table`` is a boolean ``(out_channels, in_channels)`` mask;
    masked-out kernel slices are frozen at zero exactly like LeNet-5's C3
    partial connectivity.  (Table IV's LeNet uses full connectivity, but the
    table is supported for the classic variant and tested.)
    """

    kind = "conv"

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 activation: str | Activation = "tanh",
                 connection_table: np.ndarray | None = None,
                 rng: np.random.Generator | None = None,
                 name: str | None = None) -> None:
        super().__init__(name or f"conv{in_channels}to{out_channels}k{kernel}")
        if min(in_channels, out_channels, kernel) < 1:
            raise ValueError("conv layer needs positive dimensions")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.activation = get_activation(activation)
        if connection_table is not None:
            connection_table = np.asarray(connection_table, dtype=bool)
            if connection_table.shape != (out_channels, in_channels):
                raise ValueError(
                    f"connection table shape {connection_table.shape} != "
                    f"({out_channels}, {in_channels})"
                )
        self.connection_table = connection_table
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel * kernel
        bound = 1.0 / np.sqrt(fan_in)
        weights = rng.uniform(
            -bound, bound, size=(out_channels, in_channels, kernel, kernel))
        if connection_table is not None:
            weights *= connection_table[:, :, None, None]
        self.params = {"W": weights, "b": np.zeros(out_channels)}

    @property
    def num_params(self) -> int:
        """Connection-table-aware count: masked slices are not trainable."""
        if self.connection_table is None:
            return super().num_params
        k2 = self.kernel * self.kernel
        return int(self.connection_table.sum()) * k2 + self.out_channels

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (batch, {self.in_channels}, h, w), "
                f"got {x.shape}"
            )
        batch, _, height, width = x.shape
        out_h = conv_output_size(height, self.kernel)
        out_w = conv_output_size(width, self.kernel)
        cols = im2col(x, self.kernel)                      # (b, p, ckk)
        kernels = self.params["W"].reshape(self.out_channels, -1)
        z = cols @ kernels.T + self.params["b"]            # (b, p, out_ch)
        z = z.transpose(0, 2, 1).reshape(batch, self.out_channels,
                                         out_h, out_w)
        if training:
            self._cache = {"x_shape": x.shape, "cols": cols, "z": z}
        return self.activation.forward(z)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cols = self._cache["cols"]
        z = self._cache["z"]
        x_shape = self._cache["x_shape"]
        batch = grad_out.shape[0]
        grad_z = grad_out * self.activation.derivative(z)
        flat = grad_z.reshape(batch, self.out_channels, -1)  # (b, oc, p)
        grad_w = np.einsum("bop,bpk->ok", flat, cols).reshape(
            self.params["W"].shape)
        if self.connection_table is not None:
            grad_w *= self.connection_table[:, :, None, None]
        self.grads = {"W": grad_w, "b": flat.sum(axis=(0, 2))}
        kernels = self.params["W"].reshape(self.out_channels, -1)
        grad_cols = np.einsum("bop,ok->bpk", flat, kernels)
        return col2im(grad_cols, x_shape, self.kernel)


class ScaledAvgPool2D(Layer):
    """LeNet subsampling: ``y = act(gain_c * avgpool(x) + bias_c)``.

    One trainable gain and bias per channel — 2 parameters per map, which is
    exactly how tiny-cnn counts LeNet's S2/S4 layers.
    """

    kind = "pool"

    def __init__(self, channels: int, size: int = 2,
                 activation: str | Activation = "tanh",
                 name: str | None = None) -> None:
        super().__init__(name or f"pool{channels}s{size}")
        if channels < 1 or size < 1:
            raise ValueError("pool layer needs positive dimensions")
        self.channels = channels
        self.size = size
        self.activation = get_activation(activation)
        self.params = {"gain": np.ones(channels), "bias": np.zeros(channels)}

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        batch, channels, height, width = x.shape
        if channels != self.channels:
            raise ValueError(
                f"{self.name}: expected {self.channels} channels, "
                f"got {channels}"
            )
        if height % self.size or width % self.size:
            raise ValueError(
                f"{self.name}: input {height}x{width} not divisible "
                f"by {self.size}"
            )
        s = self.size
        pooled = x.reshape(batch, channels, height // s, s,
                           width // s, s).mean(axis=(3, 5))
        z = pooled * self.params["gain"][:, None, None] \
            + self.params["bias"][:, None, None]
        if training:
            self._cache = {"x_shape": x.shape, "pooled": pooled, "z": z}
        return self.activation.forward(z)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        pooled = self._cache["pooled"]
        z = self._cache["z"]
        batch, channels, height, width = self._cache["x_shape"]
        grad_z = grad_out * self.activation.derivative(z)
        self.grads = {
            "gain": (grad_z * pooled).sum(axis=(0, 2, 3)),
            "bias": grad_z.sum(axis=(0, 2, 3)),
        }
        s = self.size
        grad_pool = grad_z * self.params["gain"][:, None, None] / (s * s)
        return np.repeat(np.repeat(grad_pool, s, axis=2), s, axis=3)


class Flatten(Layer):
    """Reshape ``(batch, ...)`` to ``(batch, features)``."""

    kind = "flatten"

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name or "flatten")

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._cache = {"shape": x.shape}
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._cache["shape"])
