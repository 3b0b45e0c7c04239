"""Export experiment: train → constrain → export → reload → verify.

The deployment path the serving stack exists for, expressed as the
pipeline stages ``train`` → ``constrain`` → ``evaluate`` → ``export`` →
``serve-check``: train a benchmark network, retrain it under alphabet
constraints (Algorithm 2's inner step), lower it onto the integer engine,
persist it as a :mod:`repro.serving.artifact` bundle, reload it through
the registry as a :class:`~repro.serving.compiled.CompiledModel`, and
check the reloaded scores are **bit-identical** to the exported network
on the held-out set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.hardware.report import format_table
from repro.pipeline import Pipeline, PipelineConfig
from repro.pipeline.config import Budget

__all__ = ["ExportReport", "run_export", "format_export_table"]


@dataclass(frozen=True)
class ExportReport:
    """Outcome of one train → export → reload → verify cycle."""

    app: str
    bits: int
    num_alphabets: int
    path: str
    spec_label: str
    quantized_accuracy: float
    compiled_accuracy: float
    bit_identical: bool
    num_params: int
    artifact_bytes: int
    energy_nj_per_inference: float | None


def run_export(app: str = "mnist_mlp", num_alphabets: int = 2,
               out_dir: str = os.path.join("results", "artifacts"),
               full: bool = False, seed: int = 0,
               budget_override: Budget | None = None) -> ExportReport:
    """Train a constrained *app* network and export it for serving.

    The bundle lands in ``<out_dir>/<app>-asm<num_alphabets>``; the report
    records reload accuracy and whether reloaded scores match exactly.
    """
    design = f"asm{num_alphabets}"
    config = PipelineConfig(
        app=app, designs=(design,),
        stages=("train", "constrain", "evaluate", "export", "serve-check"),
        budget=(budget_override if budget_override is not None
                else ("full" if full else "quick")),
        seed=seed, export_design=design, export_dir=out_dir,
        serve_name=app)
    report = Pipeline(config).run()
    evaluation = report.evaluate.row_for(design)
    export = report.export
    check = report.serve_check
    return ExportReport(
        app=app, bits=config.word_bits(), num_alphabets=num_alphabets,
        path=export.path, spec_label=export.spec_label,
        quantized_accuracy=evaluation.accuracy,
        compiled_accuracy=check.compiled_accuracy,
        bit_identical=check.bit_identical,
        num_params=check.num_params,
        artifact_bytes=export.artifact_bytes,
        energy_nj_per_inference=check.energy_nj_per_inference,
    )


def format_export_table(report: ExportReport) -> str:
    """Render one export cycle as a summary table."""
    energy = report.energy_nj_per_inference
    rows = [
        ["application", report.app],
        ["deployed spec", report.spec_label],
        ["artifact path", report.path],
        ["artifact size", f"{report.artifact_bytes / 1024:.1f} KiB"],
        ["deployed params", str(report.num_params)],
        ["quantized accuracy (%)",
         f"{report.quantized_accuracy * 100:.2f}"],
        ["reloaded accuracy (%)",
         f"{report.compiled_accuracy * 100:.2f}"],
        ["reload bit-identical", "yes" if report.bit_identical else "NO"],
        ["energy / inference",
         f"{energy:.1f} nJ" if energy is not None else "n/a"],
    ]
    return format_table(["Field", "Value"], rows,
                        title="Export - constrained network to serving "
                              "artifact")
