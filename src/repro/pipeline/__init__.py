"""repro.pipeline — the declarative train → constrain → evaluate →
export → serve flow.

One :class:`PipelineConfig` (dict / JSON / TOML, round-trippable)
describes a whole run of the paper's methodology; :class:`Pipeline`
executes it as named, individually-runnable, cacheable stages
(``train``, ``quantize``, ``constrain``, ``evaluate``, ``energy``,
``export``, ``serve-check``) and returns a :class:`PipelineReport`.
The paper's tables and figures (:mod:`repro.experiments`) are configs
plus formatters over these reports; new scenarios are config files
(see ``docs/pipeline.md``), not new driver modules.

>>> from repro.pipeline import PipelineConfig
>>> PipelineConfig(app="mnist_mlp", designs=("asm2",)).word_bits()
8
"""

from repro.pipeline.config import (
    FULL,
    QUICK,
    STAGE_NAMES,
    TRAIN_SETTINGS,
    Budget,
    PipelineConfig,
    PipelineConfigError,
    TrainSettings,
    budget,
    is_plan_design,
    parse_design,
)
from repro.pipeline.pipeline import Pipeline, run_pipeline
from repro.pipeline.report import PipelineReport, format_report
from repro.pipeline.stages import (
    ConstrainResult,
    DesignOutcome,
    EnergyDesignRow,
    EnergyResult,
    EvaluateResult,
    EvaluationRow,
    ExportResult,
    PipelineContext,
    QuantizeResult,
    ServeCheckResult,
    StageError,
    TrainResult,
)

__all__ = [
    "PipelineConfig", "PipelineConfigError", "STAGE_NAMES", "parse_design",
    "is_plan_design",
    "Budget", "QUICK", "FULL", "budget", "TrainSettings", "TRAIN_SETTINGS",
    "Pipeline", "run_pipeline",
    "PipelineReport", "format_report",
    "PipelineContext", "StageError",
    "TrainResult", "QuantizeResult", "ConstrainResult", "DesignOutcome",
    "EvaluateResult", "EvaluationRow", "EnergyResult", "EnergyDesignRow",
    "ExportResult", "ServeCheckResult",
]
