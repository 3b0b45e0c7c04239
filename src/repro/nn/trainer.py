"""Mini-batch trainer with saturation detection.

Algorithm 2 trains "till the training reaches near saturation, i.e.
minuscule improvement in recognition accuracy can be achieved through more
training".  :class:`Trainer` implements that stopping rule: training ends
when the best validation accuracy has not improved by ``min_improvement``
for ``patience`` consecutive epochs (or when ``max_epochs`` runs out).

A ``post_step`` hook runs after every optimiser update; constrained
retraining plugs its weight projection in there (projected SGD).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.nn.losses import Loss, get_loss
from repro.nn.network import Sequential
from repro.nn.optim import SGD

__all__ = ["TrainHistory", "Trainer"]


@dataclass
class TrainHistory:
    """Per-epoch record of one training run."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.losses)

    @property
    def best_accuracy(self) -> float:
        return max(self.accuracies) if self.accuracies else 0.0


class Trainer:
    """Mini-batch SGD training loop with plateau-based early stopping."""

    def __init__(self, network: Sequential, optimizer: SGD,
                 loss: str | Loss = "cross_entropy",
                 batch_size: int = 32,
                 patience: int = 3,
                 min_improvement: float = 1e-3,
                 post_step: Callable[[], None] | None = None,
                 rng: np.random.Generator | None = None) -> None:
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        if patience < 1:
            raise ValueError("patience must be positive")
        self.network = network
        self.optimizer = optimizer
        self.loss = get_loss(loss)
        self.batch_size = batch_size
        self.patience = patience
        self.min_improvement = min_improvement
        self.post_step = post_step
        self.rng = rng or np.random.default_rng(0)

    # ------------------------------------------------------------------
    def train_epoch(self, x: np.ndarray, y_onehot: np.ndarray) -> float:
        """One shuffled pass over the data; returns the mean batch loss."""
        if not obs.enabled():
            return self._train_epoch(x, y_onehot)[0]
        registry = obs.registry()
        started = time.perf_counter()
        mean_loss, batches = self._train_epoch(
            x, y_onehot,
            batch_counter=registry.counter("train.batches"),
            sample_counter=registry.counter("train.samples"))
        # one dispatch record per epoch: per-batch timing would dwarf
        # the work being measured
        obs.record_kernel(self.network.train_kernel.name, "train_step",
                          time.perf_counter() - started, calls=batches)
        return mean_loss

    def _train_epoch(self, x, y_onehot, batch_counter=None,
                     sample_counter=None):
        order = self.rng.permutation(len(x))
        total = 0.0
        batches = 0
        for start in range(0, len(x), self.batch_size):
            index = order[start:start + self.batch_size]
            outputs = self.network.forward(x[index], training=True)
            loss_value, grad = self.loss(outputs, y_onehot[index])
            self.network.backward(grad, input_grad=False)
            self.optimizer.step()
            if self.post_step is not None:
                self.post_step()
            total += loss_value
            batches += 1
            if batch_counter is not None:
                batch_counter.inc()
                sample_counter.inc(len(index))
        return total / max(1, batches), batches

    def fit(self, x: np.ndarray, y_onehot: np.ndarray,
            x_val: np.ndarray, y_val_labels: np.ndarray,
            max_epochs: int = 50, verbose: bool = False) -> TrainHistory:
        """Train until validation accuracy saturates (Algorithm 2 wording).

        Returns the epoch-by-epoch history; the network keeps its
        best-validation-accuracy parameters on exit.
        """
        if len(x) != len(y_onehot):
            raise ValueError("training inputs and targets differ in length")
        if len(x_val) != len(y_val_labels):
            raise ValueError(
                "validation inputs and labels differ in length")
        history = TrainHistory()
        best_accuracy = -1.0
        best_state = None
        stale_epochs = 0
        for epoch in range(max_epochs):
            with obs.span("train.epoch", epoch=epoch) as epoch_span:
                self.optimizer.set_epoch(epoch)
                loss_value = self.train_epoch(x, y_onehot)
                accuracy = self.network.accuracy(x_val, y_val_labels)
                epoch_span.set(loss=round(loss_value, 6),
                               accuracy=round(accuracy, 6))
            history.losses.append(loss_value)
            history.accuracies.append(accuracy)
            if verbose:  # pragma: no cover - console noise
                print(f"epoch {epoch:3d}: loss={loss_value:.4f} "
                      f"val_acc={accuracy:.4f}")
            if accuracy > best_accuracy + self.min_improvement:
                best_accuracy = accuracy
                best_state = self.network.state()
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= self.patience:
                    break  # near saturation
        if best_state is not None:
            self.network.load_state(best_state)
        return history
