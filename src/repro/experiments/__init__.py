"""Every table and figure of the paper, behind ``repro experiment``::

    repro experiment all            # quick tier
    repro experiment fig7 --full    # paper tier
    repro experiment export         # serving path
    repro list

:data:`EXPERIMENTS` is the whole index: each id maps to the
:class:`~repro.pipeline.config.PipelineConfig`s it needs and a formatter
over their :class:`~repro.pipeline.report.PipelineReport`s.  Tables I,
IV and V and Figs. 8 and 10 are pure hardware-model evaluations
(:mod:`repro.experiments.tables`, :mod:`repro.experiments.power_area`);
``export`` runs the deployment path (train → constrain → export a
:mod:`repro.serving` artifact under ``results/artifacts/`` → reload →
verify bit-identical scores), producing a bundle ``repro serve`` serves.

With ``--json`` each experiment writes ``results/<experiment>.json``: the
``{"reports": [...]}`` envelope ``repro run --json`` writes for
pipeline-backed experiments, the model rows for the hardware-only ones.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.experiments.power_area import (
    format_hardware_table,
    run_figure8,
    run_figure10,
)
from repro.experiments.tables import format_table1, format_table4, format_table5
from repro.explore.executor import run_pipeline_jobs
from repro.hardware.report import format_table
from repro.pipeline.config import Design, PipelineConfig
from repro.pipeline.report import PipelineReport
from repro.utils.serialization import write_json

__all__ = ["ACCURACY_APPS", "FIGURE9_GROUPS", "FIGURE11_DEPLOYMENTS",
           "EXPERIMENTS", "experiment_configs", "execute",
           "format_accuracy_table", "format_energy_table",
           "format_figure11_table"]

#: Benchmarks appearing in Fig. 7 (all five applications).
ACCURACY_APPS = ("mnist_mlp", "mnist_cnn", "face", "svhn", "tich")

#: Paper Fig. 9 grouping of the five applications.
FIGURE9_GROUPS: dict[str, tuple[str, ...]] = {
    "2-layer MLPs": ("mnist_mlp", "face"),
    "5-6 layer MLPs": ("svhn", "tich"),
    "6-layer CNN": ("mnist_cnn",),
}

#: The applications Fig. 11 plots.
FIGURE11_APPS = ("mnist_mlp", "svhn", "tich")

#: Fig. 11 deployments as (pipeline design token, the paper's label).
FIGURE11_DEPLOYMENTS = (("conventional", "conventional"),
                        ("asm1", "all {1}"),
                        ("mixed", "mixed"))


@dataclass(frozen=True)
class Experiment:
    """One ``repro experiment`` id.

    A pipeline-backed experiment lists the configs it runs (quick tier,
    seed 0) and formats their reports, in that order.  A hardware-only
    experiment has no configs; it formats what ``rows`` returns, which
    is also its JSON record.
    """

    format: Callable[[Sequence], str]
    configs: tuple[PipelineConfig, ...] = ()
    #: hardware-only rows; the text-only Tables I/IV/V record ``{}``
    rows: Callable[[], object] = dict


# ----------------------------------------------------------------------
# formatters over pipeline reports
# ----------------------------------------------------------------------
def format_accuracy_table(report: PipelineReport, title: str) -> str:
    """Render an accuracy grid in the paper's Table II/III shape."""
    bits = f"{report.config.word_bits()} bits"
    rows = []
    for row in report.evaluate.rows:
        conventional = not Design.parse(row.design).constrained
        rows.append([
            bits,
            "conventional NN" if conventional else row.label,
            f"{row.accuracy * 100:.2f}",
            "--" if conventional else f"{row.loss * 100:.2f}",
        ])
    return format_table(
        ["Size of Synapse", "No. of Alphabets", "Accuracy (%)",
         "Accuracy Loss (%)"],
        rows, title=title)


def format_energy_table(reports: Sequence[PipelineReport],
                        title: str) -> str:
    """Render energy-stage rows grouped the way Fig. 9 groups them."""
    group_of = {app: group for group, apps in FIGURE9_GROUPS.items()
                for app in apps}
    rows = [[group_of[report.config.app], report.config.app, row.label,
             f"{row.energy_nj:.1f}", f"{row.normalized:.3f}"]
            for report in reports for row in report.energy.rows]
    return format_table(
        ["Group", "Application", "Design", "Energy (nJ)", "normalized"],
        rows, title=title)


def format_figure11_table(reports: Sequence[PipelineReport],
                          title: str) -> str:
    """Render the Fig. 11 deployments: accuracy and normalised energy."""
    rows = [[report.config.app, deployment,
             f"{report.evaluate.row_for(design).accuracy * 100:.2f}",
             f"{report.energy.row_for(design).normalized:.3f}"]
            for report in reports
            for design, deployment in FIGURE11_DEPLOYMENTS]
    return format_table(
        ["Application", "Deployment", "Accuracy (%)", "normalized energy"],
        rows, title=title)


def format_export_table(report: PipelineReport) -> str:
    """Render one train → export → reload → verify cycle."""
    export, check = report.export, report.serve_check
    energy = check.energy_nj_per_inference
    rows = [
        ["application", report.config.app],
        ["deployed spec", export.spec_label],
        ["artifact path", export.path],
        ["artifact size", f"{export.artifact_bytes / 1024:.1f} KiB"],
        ["deployed params", str(check.num_params)],
        ["quantized accuracy (%)",
         f"{report.evaluate.row_for(export.design).accuracy * 100:.2f}"],
        ["reloaded accuracy (%)", f"{check.compiled_accuracy * 100:.2f}"],
        ["reload bit-identical", "yes" if check.bit_identical else "NO"],
        ["energy / inference",
         f"{energy:.1f} nJ" if energy is not None else "n/a"],
    ]
    return format_table(["Field", "Value"], rows,
                        title="Export - constrained network to serving "
                              "artifact")


def _accuracy_tables(reports: Sequence[PipelineReport],
                     title: Callable[[PipelineConfig], str]) -> str:
    return "\n\n".join(format_accuracy_table(report, title(report.config))
                       for report in reports)


# ----------------------------------------------------------------------
# the experiment table
# ----------------------------------------------------------------------
def _accuracy_grid(app: str) -> PipelineConfig:
    """Tables II/III and Fig. 7: conventional + 4/2/1-alphabet retraining
    at the benchmark's Table IV word width."""
    return PipelineConfig(
        app=app, stages=("train", "quantize", "constrain", "evaluate"))


EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment(lambda _: format_table1()),
    "table2": Experiment(
        lambda reports: format_accuracy_table(
            reports[0], "Table II - NN accuracy, face detection"),
        (_accuracy_grid("face"),)),
    "table3": Experiment(
        lambda reports: _accuracy_tables(reports, lambda c: (
            f"Table III - digit recognition ({c.word_bits()} bit, "
            f"{c.app})")),
        (_accuracy_grid("mnist_mlp"), _accuracy_grid("mnist_cnn"))),
    "table4": Experiment(lambda _: format_table4()),
    "table5": Experiment(lambda _: format_table5()),
    "fig7": Experiment(
        lambda reports: _accuracy_tables(reports, lambda c: (
            f"Fig 7 - accuracy, {c.app} ({c.word_bits()} bit)")),
        tuple(_accuracy_grid(app) for app in ACCURACY_APPS)),
    "fig8": Experiment(
        lambda rows: format_hardware_table(
            rows, "Fig 8 - normalized neuron power @ iso-speed"),
        rows=run_figure8),
    "fig9": Experiment(
        lambda reports: format_energy_table(
            reports, "Fig 9 - per-inference energy by application"),
        tuple(PipelineConfig(app=app, stages=("energy",))
              for apps in FIGURE9_GROUPS.values() for app in apps)),
    "fig10": Experiment(
        lambda rows: format_hardware_table(
            rows, "Fig 10 - normalized neuron area @ iso-speed"),
        rows=run_figure10),
    "fig11": Experiment(
        lambda reports: format_figure11_table(
            reports, "Fig 11 - mixed-alphabet accuracy and energy"),
        tuple(PipelineConfig(
            app=app, designs=tuple(d for d, _ in FIGURE11_DEPLOYMENTS))
            for app in FIGURE11_APPS)),
    "export": Experiment(
        lambda reports: format_export_table(reports[0]),
        (PipelineConfig(app="mnist_mlp", designs=("asm2",),
                        stages=("train", "constrain", "evaluate", "export",
                                "serve-check")),)),
}


def _resolved(experiment: Experiment, full: bool,
              seed: int) -> list[PipelineConfig]:
    """*experiment*'s configs with ``--full`` / ``--seed`` applied the
    way ``repro run`` applies them."""
    overrides = {"seed": seed, **({"budget": "full"} if full else {})}
    return [config.with_overrides(**overrides)
            for config in experiment.configs]


def experiment_configs(names: Sequence[str], full: bool = False,
                       seed: int = 0) -> list[PipelineConfig]:
    """The distinct pipeline configs *names* need, in first-use order.

    Experiments sharing a config (Table II and Fig. 7 both run the face
    grid) share one run: configs are deduped by :meth:`PipelineConfig.
    digest`.
    """
    distinct: dict[str, PipelineConfig] = {}
    for name in names:
        if name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {name!r}; "
                             f"see `repro list`")
        for config in _resolved(EXPERIMENTS[name], full, seed):
            distinct.setdefault(config.digest(), config)
    return list(distinct.values())


def execute(names: Sequence[str], full: bool = False, seed: int = 0,
            write_results: bool = False, jobs: int = 1) -> int:
    """Run *names*, printing their tables in order (the CLI body).

    Every distinct config runs once, on ``jobs`` worker processes via
    :func:`~repro.explore.executor.run_pipeline_jobs`; formatting
    happens here, in the requested order.
    """
    configs = experiment_configs(names, full=full, seed=seed)
    reports = dict(zip((config.digest() for config in configs),
                       run_pipeline_jobs(configs, jobs=jobs)))
    for name in names:
        experiment = EXPERIMENTS[name]
        if experiment.configs:
            data = [reports[config.digest()]
                    for config in _resolved(experiment, full, seed)]
            payload = {"reports": [report.to_dict() for report in data]}
        else:
            data = payload = experiment.rows()
        print(experiment.format(data))
        print()
        if write_results:
            path = write_json(os.path.join("results", f"{name}.json"),
                              payload)
            print(f"[wrote {path}]")
    return 0
