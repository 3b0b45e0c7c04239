"""The :class:`PipelineReport` — one serialisable record per pipeline run.

Collects every stage's typed result plus the config that produced them.
Serialisation goes through :func:`repro.utils.serialization.to_jsonable`,
so a report is one ``json.dump`` away from disk, and
:mod:`repro.experiments` formats the paper's tables straight off it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.hardware.report import format_table
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stages import (
    ConstrainResult,
    EnergyResult,
    EvaluateResult,
    ExportResult,
    FaultsResult,
    QuantizeResult,
    ServeCheckResult,
    TrainResult,
)
from repro.utils.serialization import to_jsonable, write_json

__all__ = ["PipelineReport", "STAGE_ATTRS", "format_report"]

#: Stage name -> report attribute.
STAGE_ATTRS = {
    "train": "train",
    "quantize": "quantize",
    "constrain": "constrain",
    "evaluate": "evaluate",
    "faults": "faults",
    "energy": "energy",
    "export": "export",
    "serve-check": "serve_check",
}


@dataclass(frozen=True)
class PipelineReport:
    """Everything one :class:`~repro.pipeline.pipeline.Pipeline` run knows."""

    config: PipelineConfig
    stages_run: tuple[str, ...] = ()
    cached_stages: tuple[str, ...] = ()
    train: TrainResult | None = None
    quantize: QuantizeResult | None = None
    constrain: ConstrainResult | None = None
    evaluate: EvaluateResult | None = None
    faults: FaultsResult | None = None
    energy: EnergyResult | None = None
    export: ExportResult | None = None
    serve_check: ServeCheckResult | None = None

    # ------------------------------------------------------------------
    def result(self, stage: str):
        """The typed result of *stage* (``None`` if it did not run)."""
        try:
            return getattr(self, STAGE_ATTRS[stage])
        except KeyError:
            raise KeyError(f"unknown stage {stage!r}") from None

    def require(self, stage: str):
        """Like :meth:`result` but raises when the stage did not run."""
        value = self.result(stage)
        if value is None:
            raise ValueError(
                f"stage {stage!r} did not run in this pipeline "
                f"(ran: {self.stages_run})")
        return value

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        stages = {name: to_jsonable(self.result(name))
                  for name in self.stages_run}
        return {
            "config": self.config.to_dict(),
            "config_digest": self.config.digest(),
            "stages_run": list(self.stages_run),
            "cached_stages": list(self.cached_stages),
            "stages": stages,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def save(self, path: str) -> str:
        return write_json(path, self.to_dict())


# ----------------------------------------------------------------------
def format_report(report: PipelineReport) -> str:
    """Human-readable summary of a pipeline run."""
    config = report.config
    sections: list[str] = []
    header = [
        ["application", config.app],
        ["word width", f"{config.word_bits()} bits"],
        ["budget", config.tier().name],
        ["seed", str(config.seed)],
        ["designs", ", ".join(config.designs)],
        ["stages", ", ".join(
            f"{name} (cached)" if name in report.cached_stages else name
            for name in report.stages_run)],
    ]
    sections.append(format_table(["Field", "Value"], header,
                                 title=f"Pipeline - {config.app}"))

    if report.train is not None:
        sections.append(format_table(
            ["Field", "Value"],
            [["epochs to saturation", str(report.train.epochs)],
             ["float accuracy (%)",
              f"{report.train.float_accuracy * 100:.2f}"]],
            title="Stage: train"))
    if report.quantize is not None:
        sections.append(format_table(
            ["Field", "Value"],
            [["baseline accuracy J (%)",
              f"{report.quantize.baseline_accuracy * 100:.2f}"]],
            title=f"Stage: quantize ({report.quantize.bits} bit, "
                  f"conventional engine)"))
    if report.constrain is not None:
        rows = []
        for outcome in report.constrain.outcomes:
            chosen = ("--" if outcome.chosen_alphabets is None
                      else str(outcome.chosen_alphabets))
            rows.append([outcome.design, str(outcome.epochs), chosen])
        sections.append(format_table(
            ["Design", "Retrain epochs", "Ladder choice"], rows,
            title="Stage: constrain"))
    if report.evaluate is not None:
        rows = []
        for row in report.evaluate.rows:
            rows.append([
                row.design, row.label, f"{row.accuracy * 100:.2f}",
                "--" if row.loss is None else f"{row.loss * 100:.2f}"])
        sections.append(format_table(
            ["Design", "Deployment", "Accuracy (%)", "Loss (%)"], rows,
            title="Stage: evaluate (bit-accurate engine)"))
    if report.faults is not None:
        rows = []
        for row in report.faults.rows:
            rows.append([row.design, f"{row.rate:g}",
                         f"{row.accuracy * 100:.2f}",
                         f"{row.degradation * 100:+.2f}",
                         str(row.injected)])
        sections.append(format_table(
            ["Design", "Fault rate", "Accuracy (%)", "Degradation (pp)",
             "Injected"], rows,
            title=f"Stage: faults ({report.faults.kind}, "
                  f"seed {report.faults.seed})"))
    if report.energy is not None:
        rows = []
        for row in report.energy.rows:
            rows.append([row.design, row.label,
                         f"{row.energy_nj:.1f}", f"{row.normalized:.3f}",
                         f"{row.energy_per_mac_fj:.1f}",
                         f"{row.area_um2:.0f}", f"{row.latency_us:.1f}"])
        sections.append(format_table(
            ["Design", "Deployment", "Energy (nJ)", "normalized",
             "E/MAC (fJ)", "Area (um2)", "Latency (us)"], rows,
            title="Stage: energy (CSHM engine, per inference)"))
    if report.export is not None:
        sections.append(format_table(
            ["Field", "Value"],
            [["design", report.export.design],
             ["deployed spec", report.export.spec_label],
             ["artifact path", report.export.path],
             ["artifact size",
              f"{report.export.artifact_bytes / 1024:.1f} KiB"]],
            title="Stage: export"))
    if report.serve_check is not None:
        check = report.serve_check
        energy = check.energy_nj_per_inference
        sections.append(format_table(
            ["Field", "Value"],
            [["registry key", check.registry_key],
             ["deployed params", str(check.num_params)],
             ["reloaded accuracy (%)",
              f"{check.compiled_accuracy * 100:.2f}"],
             ["reload bit-identical",
              "yes" if check.bit_identical else "NO"],
             ["energy / inference",
              f"{energy:.1f} nJ" if energy is not None else "n/a"]],
            title="Stage: serve-check"))
    return "\n\n".join(sections)
