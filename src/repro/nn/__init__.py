"""numpy neural-network substrate: layers, training, quantised inference."""

from repro.nn.activations import (
    Activation,
    Identity,
    ReLU,
    Sigmoid,
    SigmoidLUT,
    Tanh,
    get_activation,
    softmax,
)
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, ScaledAvgPool2D
from repro.nn.losses import CrossEntropyLoss, Loss, MSELoss, get_loss
from repro.nn.network import Sequential
from repro.nn.optim import SGD, ConstantRate, StepDecay
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
from repro.nn.trainer import Trainer, TrainHistory

__all__ = [
    "Activation", "Identity", "ReLU", "Sigmoid", "SigmoidLUT", "Tanh",
    "get_activation", "softmax",
    "Conv2D", "Dense", "Flatten", "Layer", "ScaledAvgPool2D",
    "CrossEntropyLoss", "Loss", "MSELoss", "get_loss",
    "Sequential",
    "SGD", "ConstantRate", "StepDecay",
    "QuantizationSpec", "QuantizedNetwork",
    "Trainer", "TrainHistory",
]
