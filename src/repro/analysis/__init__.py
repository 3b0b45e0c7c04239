"""Analysis tools: quartet usage, alphabet selection, layer sensitivity."""

from repro.analysis.quartets import (
    QuartetUsage,
    quartet_usage,
    select_alphabets,
    weighted_coverage,
)
from repro.analysis.sensitivity import layer_sensitivity

__all__ = [
    "QuartetUsage", "quartet_usage", "select_alphabets",
    "weighted_coverage",
    "layer_sensitivity",
]
