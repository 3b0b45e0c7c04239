"""Weight constraining — the paper's Algorithm 1 and an exact variant.

Retraining with a reduced alphabet set requires every weight quartet to be a
supported value.  Algorithm 1 walks the quartets and rounds each unsupported
value to the nearest supported one, where "nearest" uses the midpoint of the
two neighbouring supported values as the threshold and the midpoint itself
rounds **up** (the paper's example: supported neighbours 8 and 12 give a
threshold of 10; 9 → 8, while 10 and 11 → 12).

Rounding a quartet up past its top supported value generates a carry into the
next quartet (e.g. 15 under ``{1,3}`` has neighbours 12 and 16); the carry may
itself land on an unsupported value, so the walk continues LSB→MSB exactly as
the paper's nested "round-up/down QR / PQR" steps describe.

Because the quartet-greedy walk is not globally optimal (rounding a high
quartet can move the value far while a joint adjustment of lower quartets
would stay close), the module also provides
:func:`nearest_representable_magnitude`, which finds the true nearest value
whose quartets are all supported.  The greedy walk is the paper-faithful
default; the exact variant exists for the rounding ablation bench.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from repro.asm.alphabet import AlphabetSet
from repro.fixedpoint.quartet import QuartetLayout

__all__ = [
    "nearest_supported",
    "constrain_magnitude_greedy",
    "representable_magnitudes",
    "nearest_representable_magnitude",
    "WeightConstrainer",
    "constraint_stats",
]


def nearest_supported(value: int, supported: tuple[int, ...]) -> int:
    """Round *value* to the nearest entry of the sorted tuple *supported*.

    Midpoints round up, per the paper's rounding logic.  *supported* may
    contain a value one past the quartet maximum (16) to allow carries.

    >>> nearest_supported(9, (0, 1, 2, 3, 4, 6, 8, 12))
    8
    >>> nearest_supported(10, (0, 1, 2, 3, 4, 6, 8, 12))
    12
    """
    if not supported:
        raise ValueError("supported set is empty")
    pos = bisect.bisect_left(supported, value)
    if pos == 0:
        return supported[0]
    if pos == len(supported):
        return supported[-1]
    below, above = supported[pos - 1], supported[pos]
    if below == value:
        return value
    threshold = (below + above) / 2.0
    return above if value >= threshold else below


@lru_cache(maxsize=None)
def _supported_with_carry(alphabet_set: AlphabetSet, width: int,
                          allow_carry: bool) -> tuple[int, ...]:
    values = sorted(alphabet_set.supported_values(width))
    if allow_carry:
        values.append(1 << width)
    return tuple(values)


def constrain_magnitude_greedy(magnitude: int, layout: QuartetLayout,
                               alphabet_set: AlphabetSet) -> int:
    """Algorithm 1: constrain a weight magnitude quartet-by-quartet.

    Walks LSB→MSB.  Each quartet (plus any carry from below) is rounded to
    the nearest supported value; rounding up to ``2**width`` re-encodes as a
    carry into the next quartet.  The MSB quartet cannot carry out, so there
    it rounds within its supported range (saturating at the top supported
    value).

    >>> from repro.asm.alphabet import ALPHA_2
    >>> from repro.fixedpoint.quartet import LAYOUT_8BIT
    >>> constrain_magnitude_greedy(105, LAYOUT_8BIT, ALPHA_2)   # R=9 -> 8
    104
    """
    quartets = list(layout.split(magnitude))
    widths = layout.quartet_widths
    last = len(quartets) - 1
    carry = 0
    result = []
    for index, value in enumerate(quartets):
        value += carry
        carry = 0
        is_last = index == last
        supported = _supported_with_carry(
            alphabet_set, widths[index], allow_carry=not is_last)
        rounded = nearest_supported(value, supported)
        if rounded == (1 << widths[index]):
            rounded = 0
            carry = 1
        result.append(rounded)
    return layout.join(result)


@lru_cache(maxsize=None)
def representable_magnitudes(layout: QuartetLayout,
                             alphabet_set: AlphabetSet) -> tuple[int, ...]:
    """All magnitudes whose quartets are every one supported, sorted.

    The grid the constrained network's weights live on.  Size is the product
    of per-quartet supported counts (e.g. 8-bit ``{1,3}``: 8 x 6 = 48 values).
    """
    per_quartet = [
        sorted(alphabet_set.supported_values(width))
        for width in layout.quartet_widths
    ]
    magnitudes = set()
    for combo in product(*per_quartet):
        magnitudes.add(layout.join(list(combo)))
    return tuple(sorted(magnitudes))


def nearest_representable_magnitude(magnitude: int, layout: QuartetLayout,
                                    alphabet_set: AlphabetSet) -> int:
    """Exact nearest representable magnitude (ties round up)."""
    layout._check_magnitude(magnitude)
    grid = representable_magnitudes(layout, alphabet_set)
    return nearest_supported(magnitude, grid)


@lru_cache(maxsize=None)
def _constrainer_table(bits: int, alphabet_set: AlphabetSet,
                       mode: str) -> np.ndarray:
    """Process-wide cache of the signed constraining lookup table.

    Every :class:`WeightConstrainer` with the same ``(bits, alphabet_set,
    mode)`` shares one table, so repeated constructions in ablation sweeps
    and artifact reloads cost a dict lookup instead of a quartet walk over
    the whole weight range.  Read-only because it is shared.
    """
    layout = QuartetLayout(bits)
    constrain = (constrain_magnitude_greedy if mode == "greedy"
                 else nearest_representable_magnitude)
    max_mag = layout.max_magnitude
    magnitude_map = np.array(
        [constrain(m, layout, alphabet_set) for m in range(max_mag + 1)],
        dtype=np.int64,
    )
    # Signed table indexed by (weight + max_mag + 1); index 0 holds the
    # most negative code, which saturates to -max_mag before constraining
    # (the datapath multiplies |W| and |−2^(b−1)| is unrepresentable).
    table = np.empty(2 * max_mag + 2, dtype=np.int64)
    table[max_mag + 1:] = magnitude_map                      # w >= 0
    table[1:max_mag + 1] = -magnitude_map[1:][::-1]          # w < 0
    table[0] = -magnitude_map[max_mag]                       # w == -2^(b-1)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class ConstraintStats:
    """Summary of the rounding error a constrainer introduces."""

    num_weights: int
    num_changed: int
    max_abs_error: int
    mean_abs_error: float

    @property
    def fraction_changed(self) -> float:
        return self.num_changed / self.num_weights if self.num_weights else 0.0


class WeightConstrainer:
    """Maps signed integer weights onto the alphabet-supported grid.

    Parameters
    ----------
    bits:
        Weight word width (8 or 12 in the paper).
    alphabet_set:
        The reduced alphabet set to support.
    mode:
        ``"greedy"`` — the paper's Algorithm 1 quartet walk (default);
        ``"nearest"`` — exact nearest representable magnitude.

    The full signed mapping is precomputed into a lookup table so that array
    projection during retraining is a single fancy-index.
    """

    def __init__(self, bits: int, alphabet_set: AlphabetSet,
                 mode: str = "greedy") -> None:
        if mode not in ("greedy", "nearest"):
            raise ValueError(f"unknown constraint mode {mode!r}")
        self.bits = bits
        self.alphabet_set = alphabet_set
        self.mode = mode
        self.layout = QuartetLayout(bits)
        self._table = _constrainer_table(bits, alphabet_set, mode)

    # ------------------------------------------------------------------
    def constrain(self, weight: int) -> int:
        """Constrain one signed integer weight.

        >>> from repro.asm.alphabet import ALPHA_2
        >>> WeightConstrainer(8, ALPHA_2).constrain(-105)
        -104
        """
        offset = self.layout.max_magnitude + 1
        index = weight + offset
        if not 0 <= index < len(self._table):
            raise OverflowError(
                f"weight {weight} outside signed {self.bits}-bit range"
            )
        return int(self._table[index])

    def constrain_array(self, weights: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`constrain` for integer arrays."""
        weights = np.asarray(weights, dtype=np.int64)
        offset = self.layout.max_magnitude + 1
        index = weights + offset
        if index.size and (index.min() < 0 or index.max() >= len(self._table)):
            raise OverflowError(
                f"weights outside signed {self.bits}-bit range"
            )
        return self._table[index]

    def is_representable(self, weight: int) -> bool:
        """True when *weight* is already on the supported grid."""
        return self.constrain(weight) == weight

    @property
    def table(self) -> np.ndarray:
        """The read-only signed lookup table, indexed by
        ``weight + max_magnitude + 1`` — the fused projection kernel
        (:mod:`repro.kernels.projection`) indexes it directly."""
        return self._table

    @property
    def grid(self) -> tuple[int, ...]:
        """Sorted magnitudes of the representable grid."""
        return representable_magnitudes(self.layout, self.alphabet_set)


def constraint_stats(constrainer: WeightConstrainer,
                     weights: np.ndarray) -> ConstraintStats:
    """Measure how much :class:`WeightConstrainer` moves a weight array."""
    weights = np.asarray(weights, dtype=np.int64)
    constrained = constrainer.constrain_array(weights)
    errors = np.abs(constrained - weights)
    return ConstraintStats(
        num_weights=int(weights.size),
        num_changed=int(np.count_nonzero(errors)),
        max_abs_error=int(errors.max()) if weights.size else 0,
        mean_abs_error=float(errors.mean()) if weights.size else 0.0,
    )
