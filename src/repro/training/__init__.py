"""Constrained retraining (projected SGD) and §VI.E mixed plans.

Algorithm 2's escalation runs as the pipeline's ``ladder`` design
(:mod:`repro.pipeline.stages`).
"""

from repro.training.constrained import (
    ConstraintProjector,
    constrained_trainer,
    weight_param_name,
)
from repro.training.mixed import build_mixed_plan

__all__ = [
    "ConstraintProjector", "constrained_trainer", "weight_param_name",
    "build_mixed_plan",
]
