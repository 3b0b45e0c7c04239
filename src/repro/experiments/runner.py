"""Experiment registry behind ``repro experiment``::

    repro experiment all            # quick tier
    repro experiment fig7 --full    # paper tier
    repro experiment export         # serving path
    repro list

Experiments ``table1``–``table5`` and ``fig7``–``fig11`` reproduce the
paper; ``export`` runs the deployment path (train → constrain → export a
:mod:`repro.serving` artifact under ``results/artifacts/`` → reload → verify
bit-identical scores), producing a bundle that ``repro serve`` can serve.
Every training experiment is a thin formatter over
:mod:`repro.pipeline` reports.

Each experiment prints its table(s) and, when ``--json`` is given, writes a
machine-readable record to ``results/<experiment>.json``.
"""

from __future__ import annotations

import os

from repro.experiments.accuracy import (
    format_accuracy_table,
    run_accuracy_grid,
    run_figure7,
)
from repro.experiments.energy import format_energy_table, run_figure9
from repro.experiments.export import format_export_table, run_export
from repro.experiments.mixed import format_figure11_table, run_figure11
from repro.experiments.power_area import (
    format_hardware_table,
    run_figure8,
    run_figure10,
)
from repro.experiments.tables import format_table1, format_table4, format_table5
from repro.utils.serialization import write_json

__all__ = ["EXPERIMENTS", "run_experiment", "execute"]


def run_experiment(name: str, full: bool = False,
                   seed: int = 0) -> tuple[str, object]:
    """Run one experiment; returns (printable text, json-able payload)."""
    if name == "table1":
        return format_table1(), {}
    if name == "table2":
        grid = run_accuracy_grid("face", full=full, seed=seed)
        return format_accuracy_table(
            grid, "Table II - NN accuracy, face detection"), grid
    if name == "table3":
        grids = [run_accuracy_grid("mnist_mlp", bits=8, full=full, seed=seed),
                 run_accuracy_grid("mnist_cnn", bits=12, full=full,
                                   seed=seed)]
        text = "\n\n".join(
            format_accuracy_table(g, f"Table III - digit recognition "
                                     f"({g.bits} bit, {g.app})")
            for g in grids)
        return text, grids
    if name == "table4":
        return format_table4(), {}
    if name == "table5":
        return format_table5(), {}
    if name == "fig7":
        grids = run_figure7(full=full, seed=seed)
        text = "\n\n".join(
            format_accuracy_table(
                grid, f"Fig 7 - accuracy, {app} ({grid.bits} bit)")
            for app, grid in grids.items())
        return text, grids
    if name == "fig8":
        rows = run_figure8()
        return format_hardware_table(
            rows, "Fig 8 - normalized neuron power @ iso-speed"), rows
    if name == "fig9":
        rows = run_figure9()
        return format_energy_table(
            rows, "Fig 9 - per-inference energy by application"), rows
    if name == "fig10":
        rows = run_figure10()
        return format_hardware_table(
            rows, "Fig 10 - normalized neuron area @ iso-speed"), rows
    if name == "fig11":
        rows = run_figure11(full=full, seed=seed)
        return format_figure11_table(
            rows, "Fig 11 - mixed-alphabet accuracy and energy"), rows
    if name == "export":
        report = run_export(full=full, seed=seed)
        return format_export_table(report), report
    raise ValueError(f"unknown experiment {name!r}; see `repro list`")


EXPERIMENTS = ("table1", "table2", "table3", "table4", "table5",
               "fig7", "fig8", "fig9", "fig10", "fig11", "export")


def execute(names: tuple[str, ...], full: bool = False, seed: int = 0,
            write_results: bool = False, jobs: int = 1) -> int:
    """Run *names* in order, printing tables (the shared CLI body).

    ``jobs > 1`` evaluates the experiments on a worker pool (each is
    independent); output is still printed in the requested order.
    """
    if jobs > 1 and len(names) > 1:
        from repro.explore.executor import run_experiment_jobs

        for result in run_experiment_jobs(names, full=full, seed=seed,
                                          write_results=write_results,
                                          jobs=jobs):
            print(result["text"])
            print()
            if result["path"]:
                print(f"[wrote {result['path']}]")
        return 0
    for name in names:
        text, payload = run_experiment(name, full=full, seed=seed)
        print(text)
        print()
        if write_results:
            path = write_json(os.path.join("results", f"{name}.json"),
                              payload)
            print(f"[wrote {path}]")
    return 0
