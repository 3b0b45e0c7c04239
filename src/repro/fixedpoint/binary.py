"""Two's-complement encoding helpers used throughout the ASM datapath models.

The hardware described in the paper operates on 8- and 12-bit two's-complement
words.  These helpers convert between Python integers and fixed-width machine
words, and provide the small bit-level predicates the rest of the library
needs (sign extraction, power-of-two tests, ceil-log2).

All functions validate their inputs aggressively: silent wrap-around is a
hardware behaviour we model *explicitly* elsewhere (see
:mod:`repro.fixedpoint.qformat` saturation), never an accident.
"""

from __future__ import annotations

__all__ = [
    "signed_range",
    "to_twos_complement",
    "from_twos_complement",
    "sign_bit",
    "bit_string",
    "is_power_of_two",
    "clog2",
    "popcount",
]


def signed_range(bits: int) -> tuple[int, int]:
    """Return the inclusive ``(minimum, maximum)`` of a signed *bits*-bit word.

    >>> signed_range(8)
    (-128, 127)
    """
    _check_bits(bits)
    half = 1 << (bits - 1)
    return -half, half - 1


def to_twos_complement(value: int, bits: int) -> int:
    """Encode *value* as an unsigned *bits*-bit two's-complement word.

    Raises :class:`OverflowError` if *value* does not fit.

    >>> to_twos_complement(-1, 8)
    255
    >>> to_twos_complement(105, 8)
    105
    """
    _check_bits(bits)
    low, high = signed_range(bits)
    if not low <= value <= high:
        raise OverflowError(
            f"value {value} does not fit in a signed {bits}-bit word "
            f"(range [{low}, {high}])"
        )
    return value & ((1 << bits) - 1)


def from_twos_complement(word: int, bits: int) -> int:
    """Decode an unsigned *bits*-bit two's-complement *word* to a Python int.

    >>> from_twos_complement(255, 8)
    -1
    >>> from_twos_complement(105, 8)
    105
    """
    _check_bits(bits)
    if not 0 <= word < (1 << bits):
        raise ValueError(f"word {word} is not an unsigned {bits}-bit value")
    if word & (1 << (bits - 1)):
        return word - (1 << bits)
    return word


def sign_bit(value: int, bits: int) -> int:
    """Return the sign bit (0 or 1) of *value* viewed as a *bits*-bit word."""
    return (to_twos_complement(value, bits) >> (bits - 1)) & 1


def bit_string(value: int, bits: int) -> str:
    """Render *value* as a *bits*-character binary string (two's complement).

    >>> bit_string(105, 8)
    '01101001'
    >>> bit_string(-2, 4)
    '1110'
    """
    return format(to_twos_complement(value, bits), f"0{bits}b")


def is_power_of_two(value: int) -> bool:
    """True when *value* is a positive power of two (1, 2, 4, ...)."""
    return value > 0 and (value & (value - 1)) == 0


def clog2(value: int) -> int:
    """Ceiling of log2 for positive integers; clog2(1) == 0.

    Used when sizing mux trees and barrel shifters in the hardware model.
    """
    if value < 1:
        raise ValueError(f"clog2 requires a positive integer, got {value}")
    return (value - 1).bit_length()


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError(f"popcount requires a non-negative integer, got {value}")
    return bin(value).count("1")


def popcount_array(values) -> "np.ndarray":
    """Vectorised popcount for non-negative int64 arrays.

    Used by the cycle-accurate engine simulator to count bit toggles
    (Hamming distance of consecutive bus values).  One ``np.bitwise_count``
    pass, returned as int64 in the shape of *values*.
    """
    import numpy as np

    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("popcount_array requires non-negative values")
    return np.bitwise_count(values).astype(np.int64)


def _check_bits(bits: int) -> None:
    if bits < 2:
        raise ValueError(f"word width must be at least 2 bits, got {bits}")
