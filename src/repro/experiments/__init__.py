"""Experiment drivers reproducing every table and figure of the paper.

See DESIGN.md §5 for the experiment index.  Run everything with::

    repro experiment all
"""

from repro.experiments.accuracy import (
    ACCURACY_APPS,
    AccuracyGrid,
    AccuracyRow,
    format_accuracy_table,
    run_accuracy_grid,
    run_figure7,
)
from repro.experiments.energy import (
    FIGURE9_GROUPS,
    EnergyRow,
    format_energy_table,
    run_figure9,
)
from repro.experiments.mixed import (
    FIGURE11_APPS,
    Figure11Row,
    format_figure11_table,
    mixed_plan_for,
    run_figure11,
    run_figure11_app,
)
from repro.experiments.power_area import (
    PAPER_VALUES,
    HardwareRow,
    format_hardware_table,
    run_figure8,
    run_figure10,
    run_hardware_grid,
)
from repro.experiments.tables import (
    format_table1,
    format_table4,
    format_table5,
    table1_rows,
    table4_rows,
    table5_rows,
)
from repro.pipeline.config import FULL, QUICK, Budget, TrainSettings, budget

__all__ = [
    "AccuracyGrid", "AccuracyRow", "format_accuracy_table",
    "run_accuracy_grid", "run_figure7",
    "ACCURACY_APPS", "FULL", "QUICK", "Budget", "TrainSettings", "budget",
    "FIGURE9_GROUPS", "EnergyRow", "format_energy_table", "run_figure9",
    "FIGURE11_APPS", "Figure11Row", "format_figure11_table",
    "mixed_plan_for", "run_figure11", "run_figure11_app",
    "PAPER_VALUES", "HardwareRow", "format_hardware_table",
    "run_figure8", "run_figure10", "run_hardware_grid",
    "format_table1", "format_table4", "format_table5",
    "table1_rows", "table4_rows", "table5_rows",
]
