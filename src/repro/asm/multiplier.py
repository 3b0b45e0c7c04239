"""Functional (bit-accurate) models of the multipliers in the neuron.

Two datapaths are modelled:

* :class:`ConventionalMultiplier` — the exact signed array multiplier the
  paper's baseline neuron uses.
* :class:`AlphabetSetMultiplier` — the ASM: the weight magnitude is split
  into quartets, each quartet selects a pre-computed alphabet multiple of the
  input and a shift, and the shifted alphabets are summed.  With a reduced
  alphabet set, quartet values outside the supported set cannot be selected;
  the ``fallback`` policy models what the control logic does instead:

  - ``"error"``    — raise; use when weights are guaranteed constrained,
  - ``"nearest"``  — select the nearest supported quartet (midpoint rounds
    up, no carry — the control logic is per-quartet),
  - ``"truncate"`` — select the largest supported quartet not above the
    value (simplest possible control logic).

The rest of the system names the datapath with one value, :class:`Multiplier`
(:data:`CONVENTIONAL`, or the ASM over a set; the MAN is ``{1}``), which
owns the per-kind facts: remap, constrainer, bank multiples, manifest token.

Because the ASM's output depends on the weight only through the per-quartet
remapping, every signed weight has an *effective weight* such that
``asm(W, I) == effective(W) * I`` exactly.  :meth:`Multiplier.
effective_weights` is the one implementation of that remap for arrays: the
quantised forward pass, the toggle simulator and :meth:`AlphabetSetMultiplier.
multiply_array` all fold weights through it, and it reads the memoized
:func:`effective_weight_table`.  The explicit select/shift/add path in
:meth:`AlphabetSetMultiplier.multiply` and the scalar
:meth:`~AlphabetSetMultiplier.effective_weight` are retained as the
reference the table is cross-checked against in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.asm.alphabet import AlphabetSet
from repro.asm.constraints import WeightConstrainer, nearest_supported
from repro.asm.decompose import UnsupportedQuartetError, decompose_quartet
from repro.fixedpoint.binary import signed_range
from repro.fixedpoint.quartet import QuartetLayout

__all__ = ["Multiplier", "CONVENTIONAL", "ConventionalMultiplier",
           "AlphabetSetMultiplier", "FALLBACK_POLICIES",
           "effective_weight_table"]

FALLBACK_POLICIES = ("error", "nearest", "truncate")

#: Table entry marking a weight the ``"error"`` policy rejects.
UNSUPPORTED_WEIGHT = np.iinfo(np.int64).min


@lru_cache(maxsize=None)
def _quartet_map(alphabet_set: AlphabetSet, width: int,
                 fallback: str) -> tuple[int | None, ...]:
    """Process-wide cache of the quartet remap under a fallback policy."""
    supported = sorted(alphabet_set.supported_values(width))
    mapping: list[int | None] = []
    for value in range(1 << width):
        if value in alphabet_set.supported_values(width):
            mapping.append(value)
        elif fallback == "nearest":
            mapping.append(nearest_supported(value, tuple(supported)))
        elif fallback == "truncate":
            mapping.append(max(s for s in supported if s <= value))
        else:
            mapping.append(None)
    return tuple(mapping)


@lru_cache(maxsize=None)
def _effective_weight_table(bits: int, alphabet_set: AlphabetSet,
                            fallback: str) -> np.ndarray:
    """Process-wide cache of the signed effective-weight lookup table.

    Built quartet by quartet over the whole weight range from the same
    quartet maps the explicit datapath uses: the magnitude saturates at
    ``2**(bits-1) - 1``, each quartet is remapped, and the sign is
    restored.  A weight with any unsupported quartet holds
    :data:`UNSUPPORTED_WEIGHT`.  The array is marked read-only because it
    is shared.
    """
    layout = QuartetLayout(bits)
    offset = 1 << (bits - 1)
    weights = np.arange(-offset, offset, dtype=np.int64)
    magnitudes = np.minimum(np.abs(weights), layout.max_magnitude)
    effective = np.zeros_like(weights)
    unsupported = np.zeros(weights.shape, dtype=bool)
    for index, width in enumerate(layout.quartet_widths):
        shift = layout.shift_of(index)
        remap = np.array([-1 if value is None else value for value in
                          _quartet_map(alphabet_set, width, fallback)],
                         dtype=np.int64)
        realised = remap[(magnitudes >> shift) & ((1 << width) - 1)]
        unsupported |= realised < 0
        effective |= np.maximum(realised, 0) << shift
    table = np.where(unsupported, UNSUPPORTED_WEIGHT,
                     np.where(weights < 0, -effective, effective))
    table.setflags(write=False)
    return table


def effective_weight_table(bits: int, alphabet_set: AlphabetSet,
                           fallback: str = "error") -> np.ndarray:
    """The memoized signed effective-weight lookup table, directly.

    Index ``w + 2**(bits-1)`` → effective weight; under the ``"error"``
    policy, unsupported weights hold the sentinel
    :data:`UNSUPPORTED_WEIGHT`.  Returned read-only; copy before
    mutating.  To remap weights, call :meth:`Multiplier.effective_weights`.
    """
    if fallback not in FALLBACK_POLICIES:
        raise ValueError(
            f"unknown fallback {fallback!r}; choose from {FALLBACK_POLICIES}"
        )
    return _effective_weight_table(bits, alphabet_set, fallback)


@dataclass(frozen=True)
class Multiplier:
    """A neuron's multiplier: the ASM over *alphabet_set* (the MAN for
    ``{1}``), or the exact conventional one for ``None``."""

    alphabet_set: AlphabetSet | None = None

    def label(self, conventional: str = "conventional",
              asm: str = "{set}") -> str:
        """*conventional*, or *asm* formatted with the ``set`` and its
        ``count``; ``str()`` gives ``conventional`` or ``{1,3}``."""
        if self.alphabet_set is None:
            return conventional
        return asm.format(set=self.alphabet_set,
                          count=len(self.alphabet_set))

    __str__ = label

    @property
    def token(self) -> list[int] | None:
        """The manifest's ``alphabets`` value (:meth:`from_token` inverts)."""
        return None if self.alphabet_set is None else list(self.alphabet_set)

    @classmethod
    def from_token(cls, token: list[int] | None) -> "Multiplier":
        return cls(AlphabetSet(tuple(token)) if token else None)

    @property
    def bank_multiples(self) -> tuple[int, ...]:
        """Multiples the shared pre-computer bank recomputes each cycle."""
        return tuple(a for a in self.alphabet_set or () if a > 1)

    def constrainer(self, bits: int,
                    mode: str = "greedy") -> WeightConstrainer | None:
        """Algorithm 1 onto the supported grid (``None``: conventional)."""
        if self.alphabet_set is None:
            return None
        return WeightConstrainer(bits, self.alphabet_set, mode=mode)

    def effective_weights(self, bits: int, weights: np.ndarray,
                          fallback: str = "error") -> np.ndarray:
        """Signed *bits*-bit integer weights → the values the datapath
        realises (one table lookup; conventional weights pass unchecked).
        An out-of-range weight raises :class:`OverflowError`; under the
        ``"error"`` policy, an unsupported quartet raises
        :class:`~repro.asm.decompose.UnsupportedQuartetError`."""
        weights = np.asarray(weights, dtype=np.int64)
        if self.alphabet_set is None:
            return weights
        table = effective_weight_table(bits, self.alphabet_set, fallback)
        index = weights + (1 << (bits - 1))
        if index.size and (index.min() < 0 or index.max() >= len(table)):
            raise OverflowError(f"weights outside signed {bits}-bit range")
        effective = table[index]
        unsupported = effective == UNSUPPORTED_WEIGHT
        if unsupported.any():
            # the scalar datapath names the first bad weight's first
            # unsupported quartet (the table is built from the same maps)
            AlphabetSetMultiplier(bits, self.alphabet_set,
                                  fallback).effective_weight(
                int(weights[unsupported].flat[0]))
        return effective


#: The conventional exact multiplier of the paper's baseline neuron.
CONVENTIONAL = Multiplier()


class ConventionalMultiplier:
    """Exact signed multiplier on *bits*-bit operands (the baseline)."""

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self._low, self._high = signed_range(bits)

    def _check(self, value: int, name: str) -> None:
        if not self._low <= value <= self._high:
            raise OverflowError(
                f"{name} {value} outside signed {self.bits}-bit range"
            )

    def multiply(self, weight: int, operand: int) -> int:
        """Exact product ``weight * operand``."""
        self._check(weight, "weight")
        self._check(operand, "operand")
        return weight * operand

    def multiply_array(self, weights: np.ndarray,
                       operands: np.ndarray) -> np.ndarray:
        """Vectorised exact product (broadcasting allowed)."""
        return np.asarray(weights, dtype=np.int64) * np.asarray(
            operands, dtype=np.int64)


class AlphabetSetMultiplier:
    """Bit-accurate ASM model for *bits*-bit weights.

    Parameters
    ----------
    bits:
        Weight word width; the quartet layout follows the paper's Fig. 4.
    alphabet_set:
        Alphabets available from the pre-computer bank.
    fallback:
        Control-logic policy for unsupported quartet values (see module
        docstring).  Constrained networks never trigger it.
    """

    def __init__(self, bits: int, alphabet_set: AlphabetSet,
                 fallback: str = "error") -> None:
        if fallback not in FALLBACK_POLICIES:
            raise ValueError(
                f"unknown fallback {fallback!r}; choose from {FALLBACK_POLICIES}"
            )
        self.bits = bits
        self.alphabet_set = alphabet_set
        self.fallback = fallback
        self.layout = QuartetLayout(bits)
        self._low, self._high = signed_range(bits)
        # Per-width quartet remap under the fallback policy (memoized
        # process-wide: identical (alphabet, width, fallback) share tuples).
        self._quartet_maps = {
            width: _quartet_map(alphabet_set, width, fallback)
            for width in set(self.layout.quartet_widths)
        }

    # ------------------------------------------------------------------
    # the explicit datapath: pre-compute, select, shift, add
    # ------------------------------------------------------------------
    def precompute_bank(self, operand: int) -> dict[int, int]:
        """Alphabet multiples of *operand*, as the pre-computer bank would
        produce them.  The MAN set ``{1}`` needs no bank; the dict is then
        just the pass-through ``{1: operand}``.
        """
        if not self._low <= operand <= self._high:
            raise OverflowError(
                f"operand {operand} outside signed {self.bits}-bit range"
            )
        return {a: a * operand for a in self.alphabet_set}

    def multiply(self, weight: int, operand: int) -> int:
        """ASM product via explicit select/shift/add on the alphabet bank."""
        if not self._low <= weight <= self._high:
            raise OverflowError(
                f"weight {weight} outside signed {self.bits}-bit range"
            )
        bank = self.precompute_bank(operand)
        # Multiply the absolute value; the sign is applied at the end
        # (paper §IV.A: the sign bit is handled outside the quartets).
        magnitude = min(abs(weight), self.layout.max_magnitude)
        sign = -1 if weight < 0 else 1
        total = 0
        for index, value in enumerate(self.layout.split(magnitude)):
            width = self.layout.quartet_widths[index]
            realised = self._quartet_maps[width][value]
            if realised is None:
                raise UnsupportedQuartetError(value, self.alphabet_set)
            pair = decompose_quartet(realised, self.alphabet_set, width=width)
            if pair is None:
                continue
            alphabet, local_shift = pair
            selected = bank[alphabet]                       # select
            shifted = selected << local_shift               # shift
            total += shifted << self.layout.shift_of(index)  # add
        return sign * total

    # ------------------------------------------------------------------
    # effective-weight view (exact equivalent of the datapath)
    # ------------------------------------------------------------------
    def effective_magnitude(self, magnitude: int) -> int:
        """Magnitude the datapath realises for a weight magnitude."""
        result = 0
        for index, value in enumerate(self.layout.split(magnitude)):
            width = self.layout.quartet_widths[index]
            realised = self._quartet_maps[width][value]
            if realised is None:
                raise UnsupportedQuartetError(value, self.alphabet_set)
            result |= realised << self.layout.shift_of(index)
        return result

    def effective_weight(self, weight: int) -> int:
        """Signed weight the datapath realises for *weight*."""
        if not self._low <= weight <= self._high:
            raise OverflowError(
                f"weight {weight} outside signed {self.bits}-bit range"
            )
        magnitude = min(abs(weight), self.layout.max_magnitude)
        sign = -1 if weight < 0 else 1
        return sign * self.effective_magnitude(magnitude)

    def effective_weight_table(self) -> np.ndarray:
        """Signed lookup table: index ``w + 2**(bits-1)`` → effective weight
        (see :func:`effective_weight_table`; memoized, read-only)."""
        return effective_weight_table(self.bits, self.alphabet_set,
                                      self.fallback)

    def multiply_array(self, weights: np.ndarray,
                       operands: np.ndarray) -> np.ndarray:
        """Vectorised ASM product via :meth:`Multiplier.effective_weights`
        (same range and unsupported-quartet errors)."""
        return Multiplier(self.alphabet_set).effective_weights(
            self.bits, weights, self.fallback) * np.asarray(
            operands, dtype=np.int64)

    # ------------------------------------------------------------------
    def error_profile(self) -> dict[str, float]:
        """Worst and mean |effective - true| over all weights in range.

        Only meaningful with a non-``error`` fallback (otherwise constrained
        weights make the error identically zero).
        """
        offset = 1 << (self.bits - 1)
        true = np.arange(-offset, offset, dtype=np.int64)
        effective = self.effective_weight_table()
        errors = np.abs(effective - true).astype(np.float64)
        return {
            "max_abs_error": float(errors.max()),
            "mean_abs_error": float(errors.mean()),
            "fraction_exact": float(np.mean(errors == 0)),
        }
