"""Alphabet Set Multiplier (ASM) — the paper's core contribution.

Public surface:

* alphabet sets and their supported quartet values,
* quartet decomposition (select/shift/add terms, Table I),
* bit-accurate ASM and conventional multiplier models (the Multiplier-less
  Neuron is ``AlphabetSetMultiplier(bits, ALPHA_1)``),
* weight constraining (Algorithm 1) onto the supported grid.
"""

from repro.asm.alphabet import (
    ALPHA_1,
    ALPHA_2,
    ALPHA_4,
    ALPHA_8,
    FULL_ALPHABETS,
    STANDARD_SETS,
    AlphabetSet,
    standard_set,
)
from repro.asm.constraints import (
    WeightConstrainer,
    constrain_magnitude_greedy,
    constraint_stats,
    nearest_representable_magnitude,
    nearest_supported,
    representable_magnitudes,
)
from repro.asm.decompose import (
    QuartetTerm,
    UnsupportedQuartetError,
    decompose_magnitude,
    decompose_quartet,
    format_decomposition,
    reconstruct,
)
from repro.asm.multiplier import (
    FALLBACK_POLICIES,
    AlphabetSetMultiplier,
    ConventionalMultiplier,
)

__all__ = [
    "ALPHA_1",
    "ALPHA_2",
    "ALPHA_4",
    "ALPHA_8",
    "FULL_ALPHABETS",
    "STANDARD_SETS",
    "AlphabetSet",
    "standard_set",
    "WeightConstrainer",
    "constrain_magnitude_greedy",
    "constraint_stats",
    "nearest_representable_magnitude",
    "nearest_supported",
    "representable_magnitudes",
    "QuartetTerm",
    "UnsupportedQuartetError",
    "decompose_magnitude",
    "decompose_quartet",
    "format_decomposition",
    "reconstruct",
    "FALLBACK_POLICIES",
    "AlphabetSetMultiplier",
    "ConventionalMultiplier",
]
