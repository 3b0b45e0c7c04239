"""Benchmark registry: the five applications of the paper's Table IV.

Each :class:`BenchmarkSpec` couples a dataset generator with a model
builder whose layer/neuron/synapse counts match Table IV exactly (the
hidden sizes were reconstructed from the published totals).
``build_model`` / ``load_dataset`` are the only entry points the
pipeline uses, so swapping in the real MNIST/SVHN data later is a
one-file change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.datasets.base import Dataset
from repro.datasets.digits import synthetic_mnist
from repro.datasets.faces import synthetic_faces
from repro.datasets.svhn import synthetic_svhn
from repro.datasets.tich import synthetic_tich
from repro.nn.layers import Conv2D, Dense, Flatten, ScaledAvgPool2D
from repro.nn.network import Sequential

__all__ = ["BENCHMARKS", "build_model", "load_dataset",
           "training_arrays", "mlp", "lenet"]


def mlp(sizes: list[int], hidden_activation: str = "sigmoid",
        name: str = "mlp", seed: int = 0) -> Sequential:
    """Fully connected classifier; last layer identity (fused softmax).

    >>> mlp([1024, 100, 10]).num_params
    103510
    """
    if len(sizes) < 2:
        raise ValueError("an MLP needs at least input and output sizes")
    rng = np.random.default_rng(seed)
    layers = []
    for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        last = index == len(sizes) - 2
        layers.append(Dense(
            fan_in, fan_out,
            activation="identity" if last else hidden_activation,
            rng=rng, name=f"fc{index + 1}"))
    return Sequential(layers, name=name)


def lenet(n_classes: int = 10, seed: int = 0,
          name: str = "lenet") -> Sequential:
    """LeNet-5 with full C3 connectivity, matching Table IV's CNN row.

    conv6@5x5 → pool → conv16@5x5 → pool → conv120@5x5 → fc.

    >>> net = lenet()
    >>> net.num_params
    51946
    >>> net.num_neurons
    8010
    """
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(1, 6, 5, activation="tanh", rng=rng, name="c1"),
        ScaledAvgPool2D(6, 2, activation="tanh", name="s2"),
        Conv2D(6, 16, 5, activation="tanh", rng=rng, name="c3"),
        ScaledAvgPool2D(16, 2, activation="tanh", name="s4"),
        Conv2D(16, 120, 5, activation="tanh", rng=rng, name="c5"),
        Flatten(),
        Dense(120, n_classes, activation="identity", rng=rng, name="f6"),
    ]
    return Sequential(layers, name=name, input_spatial=(32, 32))


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table IV row: dataset + model + word width + published counts."""

    key: str
    description: str
    dataset_fn: Callable[..., Dataset]
    model_fn: Callable[[int], Sequential]
    bits: int
    model_kind: str            # "MLP" or "CNN"
    table4_layers: int
    table4_neurons: int
    table4_synapses: int
    needs_images: bool = False  # CNN models consume (n, 1, h, w) input


def _mnist_mlp_model(seed: int) -> Sequential:
    return mlp([1024, 100, 10], name="mnist-mlp", seed=seed)


def _lenet_model(seed: int) -> Sequential:
    return lenet(10, seed=seed)


def _face_model(seed: int) -> Sequential:
    return mlp([1024, 100, 2], name="face-mlp", seed=seed)


def _svhn_model(seed: int) -> Sequential:
    return mlp([1024, 734, 242, 198, 194, 182, 10],
               hidden_activation="tanh", name="svhn-mlp", seed=seed)


def _tich_model(seed: int) -> Sequential:
    return mlp([1024, 305, 190, 175, 80, 36],
               hidden_activation="tanh", name="tich-mlp", seed=seed)


BENCHMARKS: dict[str, BenchmarkSpec] = {
    "mnist_mlp": BenchmarkSpec(
        key="mnist_mlp",
        description="Digit Recognition (8 bit) - MNIST MLP",
        dataset_fn=synthetic_mnist,
        model_fn=_mnist_mlp_model,
        bits=8, model_kind="MLP",
        table4_layers=2, table4_neurons=110, table4_synapses=103510,
    ),
    "mnist_cnn": BenchmarkSpec(
        key="mnist_cnn",
        description="Digit Recognition (12 bit) - MNIST CNN (LeNet)",
        dataset_fn=synthetic_mnist,
        model_fn=_lenet_model,
        bits=12, model_kind="CNN",
        table4_layers=6, table4_neurons=8010, table4_synapses=51946,
        needs_images=True,
    ),
    "face": BenchmarkSpec(
        key="face",
        description="Face Detection (12 bit) - YUV Faces MLP",
        dataset_fn=synthetic_faces,
        model_fn=_face_model,
        bits=12, model_kind="MLP",
        table4_layers=2, table4_neurons=102, table4_synapses=102702,
    ),
    "svhn": BenchmarkSpec(
        key="svhn",
        description="House Number Recognition - SVHN MLP",
        dataset_fn=synthetic_svhn,
        model_fn=_svhn_model,
        bits=8, model_kind="MLP",
        table4_layers=6, table4_neurons=1560, table4_synapses=1054260,
    ),
    "tich": BenchmarkSpec(
        key="tich",
        description="Tilburg Character Set Recognition - TICH MLP",
        dataset_fn=synthetic_tich,
        model_fn=_tich_model,
        bits=8, model_kind="MLP",
        table4_layers=5, table4_neurons=786, table4_synapses=421186,
    ),
}


def build_model(key: str, seed: int = 0) -> Sequential:
    """Instantiate the model of benchmark *key* (fresh random init)."""
    return _spec(key).model_fn(seed)


def load_dataset(key: str, n_train: int | None = None,
                 n_test: int | None = None, seed: int = 0) -> Dataset:
    """Generate the dataset of benchmark *key* (seeded, reproducible)."""
    spec = _spec(key)
    kwargs: dict[str, int] = {"seed": seed}
    if n_train is not None:
        kwargs["n_train"] = n_train
    if n_test is not None:
        kwargs["n_test"] = n_test
    return spec.dataset_fn(**kwargs)


def training_arrays(dataset: Dataset,
                    spec: BenchmarkSpec) -> tuple[np.ndarray, np.ndarray]:
    """``(x_train, x_test)`` in the layout *spec*'s model consumes.

    CNN benchmarks take ``(n, 1, h, w)`` images, MLPs the flat view —
    a choice each driver used to re-derive from ``needs_images``.
    """
    if spec.needs_images:
        return dataset.x_train, dataset.x_test
    return dataset.flat_train, dataset.flat_test


def _spec(key: str) -> BenchmarkSpec:
    try:
        return BENCHMARKS[key]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {key!r}; choose from {sorted(BENCHMARKS)}"
        ) from None
