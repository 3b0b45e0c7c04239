"""Accuracy experiments: Tables II and III and Fig. 7.

For one benchmark the grid runs:

1. unconstrained training to saturation → conventional engine accuracy,
2. for each alphabet count (4, 2, 1): restore the unconstrained weights,
   retrain under constraints at a lower learning rate, measure accuracy
   through the bit-accurate ASM engine.

The heavy lifting happens in :mod:`repro.pipeline` (stages ``train`` →
``quantize`` → ``constrain`` → ``evaluate``); this module maps the
resulting :class:`~repro.pipeline.report.PipelineReport` onto the paper's
table shape: (size of synapse, number of alphabets, accuracy %, accuracy
loss %).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.alphabet import standard_set
from repro.hardware.report import format_table
from repro.pipeline import Pipeline, PipelineConfig
from repro.pipeline.config import Budget

__all__ = ["ACCURACY_APPS", "AccuracyRow", "AccuracyGrid",
           "run_accuracy_grid", "run_figure7", "format_accuracy_table"]

#: Benchmarks appearing in Fig. 7 (all five applications).
ACCURACY_APPS = ("mnist_mlp", "mnist_cnn", "face", "svhn", "tich")


@dataclass(frozen=True)
class AccuracyRow:
    """One row of Table II/III."""

    bits: int
    num_alphabets: int | None      # None = conventional multiplier
    accuracy: float
    loss: float                    # vs the conventional row, in points

    @property
    def label(self) -> str:
        if self.num_alphabets is None:
            return "conventional NN"
        return f"{self.num_alphabets} {standard_set(self.num_alphabets)}"


@dataclass
class AccuracyGrid:
    """All rows for one application at one word width."""

    app: str
    bits: int
    rows: list[AccuracyRow]

    @property
    def baseline(self) -> AccuracyRow:
        return self.rows[0]

    def row_for(self, num_alphabets: int | None) -> AccuracyRow:
        for row in self.rows:
            if row.num_alphabets == num_alphabets:
                return row
        raise KeyError(f"no row for {num_alphabets} alphabets")

    @property
    def max_loss(self) -> float:
        return max(row.loss for row in self.rows)


def run_accuracy_grid(app: str, bits: int | None = None,
                      alphabet_counts: tuple[int, ...] = (4, 2, 1),
                      full: bool = False, seed: int = 0,
                      constraint_mode: str = "greedy",
                      budget_override: Budget | None = None) -> AccuracyGrid:
    """Run the Table II/III grid for one application.

    ``bits=None`` uses the benchmark's Table IV word width.  The grid always
    starts with the conventional row, then one row per alphabet count.
    """
    config = PipelineConfig(
        app=app, bits=bits,
        designs=("conventional",)
        + tuple(f"asm{count}" for count in alphabet_counts),
        stages=("train", "quantize", "constrain", "evaluate"),
        budget=(budget_override if budget_override is not None
                else ("full" if full else "quick")),
        seed=seed, constraint_mode=constraint_mode)
    report = Pipeline(config).run()
    grid_bits = config.word_bits()
    rows = [AccuracyRow(bits=grid_bits, num_alphabets=None,
                        accuracy=report.quantize.baseline_accuracy,
                        loss=0.0)]
    for count in alphabet_counts:
        row = report.evaluate.row_for(f"asm{count}")
        rows.append(AccuracyRow(bits=grid_bits, num_alphabets=count,
                                accuracy=row.accuracy, loss=row.loss))
    return AccuracyGrid(app=app, bits=grid_bits, rows=rows)


def run_figure7(full: bool = False, seed: int = 0,
                apps: tuple[str, ...] | None = None,
                ) -> dict[str, AccuracyGrid]:
    """Fig. 7: the accuracy grid for every application at its Table IV
    word width, normalised rows included via :class:`AccuracyGrid`."""
    grids = {}
    for app in (apps or ACCURACY_APPS):
        grids[app] = run_accuracy_grid(app, full=full, seed=seed)
    return grids


def format_accuracy_table(grid: AccuracyGrid, title: str) -> str:
    """Render a grid in the paper's Table II/III shape."""
    rows = []
    for row in grid.rows:
        rows.append([
            f"{row.bits} bits",
            row.label,
            f"{row.accuracy * 100:.2f}",
            "--" if row.num_alphabets is None else f"{row.loss * 100:.2f}",
        ])
    return format_table(
        ["Size of Synapse", "No. of Alphabets", "Accuracy (%)",
         "Accuracy Loss (%)"],
        rows, title=title)
