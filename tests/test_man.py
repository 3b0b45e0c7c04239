"""Tests for the Multiplier-less Neuron: the 1-alphabet ASM's shift-add
terms (:func:`decompose_magnitude` / :func:`format_decomposition`) and
its datapath model ``AlphabetSetMultiplier(bits, ALPHA_1)``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4, FULL_ALPHABETS
from repro.asm.constraints import WeightConstrainer, representable_magnitudes
from repro.asm.decompose import (
    UnsupportedQuartetError,
    decompose_magnitude,
    format_decomposition,
)
from repro.asm.multiplier import AlphabetSetMultiplier
from repro.fixedpoint.quartet import LAYOUT_8BIT, LAYOUT_12BIT

MAN = AlphabetSetMultiplier(8, ALPHA_1)


def shift_add(terms, operand: int) -> int:
    """Run decomposed terms as the datapath does: select, shift, add."""
    return sum((term.alphabet * operand) << term.shift for term in terms)


class TestCompileWeight:
    def test_simple_power_of_two(self):
        assert format_decomposition(64, LAYOUT_8BIT, ALPHA_1) == \
            "W x I = 2^6.(0001).I"
        assert len(decompose_magnitude(64, LAYOUT_8BIT, ALPHA_1)) == 1

    def test_two_term_program(self):
        assert format_decomposition(68, LAYOUT_8BIT, ALPHA_1) == \
            "W x I = 2^6.(0001).I + 2^2.(0001).I"
        terms = decompose_magnitude(68, LAYOUT_8BIT, ALPHA_1)
        assert len(terms) == 2                        # one add
        assert all(term.shift > 0 for term in terms)  # two shifts

    def test_zero_weight(self):
        assert format_decomposition(0, LAYOUT_8BIT, ALPHA_1) == "W x I = 0"
        assert MAN.multiply(0, 123) == 0

    def test_negative_weight(self):
        # the sign is applied outside the quartets (paper §IV.A)
        assert MAN.multiply(-68, 3) == -204
        with pytest.raises(ValueError):
            format_decomposition(-68, LAYOUT_8BIT, ALPHA_1)

    def test_alphabet_term_rendering(self):
        assert format_decomposition(3, LAYOUT_8BIT, ALPHA_2) == \
            "W x I = 2^0.(0011).I"

    def test_shifted_alphabet_rendering(self):
        # P=6 -> 3 << 5
        assert format_decomposition(96, LAYOUT_8BIT, ALPHA_2) == \
            "W x I = 2^5.(0011).I"

    def test_unsupported_weight_raises(self):
        with pytest.raises(UnsupportedQuartetError):
            decompose_magnitude(9, LAYOUT_8BIT, ALPHA_4)
        with pytest.raises(UnsupportedQuartetError):
            AlphabetSetMultiplier(8, ALPHA_4).multiply(9, 1)

    def test_uses_only_input_flag(self):
        assert all(term.alphabet == 1 for term in
                   decompose_magnitude(68, LAYOUT_8BIT, ALPHA_1))
        assert not all(term.alphabet == 1 for term in
                       decompose_magnitude(3, LAYOUT_8BIT, ALPHA_2))


class TestProgramSemantics:
    @given(st.sampled_from(representable_magnitudes(LAYOUT_8BIT, ALPHA_1)),
           st.integers(min_value=-128, max_value=127))
    def test_man_program_equals_product_8bit(self, magnitude, operand):
        assert MAN.multiply(magnitude, operand) == magnitude * operand
        terms = decompose_magnitude(magnitude, LAYOUT_8BIT, ALPHA_1)
        assert shift_add(terms, operand) == magnitude * operand

    @given(st.sampled_from(representable_magnitudes(LAYOUT_12BIT, ALPHA_2)),
           st.integers(min_value=-2048, max_value=2047))
    def test_alpha2_program_equals_product_12bit(self, magnitude, operand):
        asm = AlphabetSetMultiplier(12, ALPHA_2)
        assert asm.multiply(magnitude, operand) == magnitude * operand

    @given(st.sampled_from(representable_magnitudes(LAYOUT_8BIT, ALPHA_1)))
    def test_adds_bounded_by_quartets(self, magnitude):
        terms = decompose_magnitude(magnitude, LAYOUT_8BIT, ALPHA_1)
        assert len(terms) - 1 <= LAYOUT_8BIT.num_quartets - 1

    @given(st.sampled_from(representable_magnitudes(LAYOUT_8BIT, ALPHA_1)),
           st.integers(min_value=-128, max_value=127))
    def test_negated_weight_negates_result(self, magnitude, operand):
        assert MAN.multiply(-magnitude, operand) == \
            -MAN.multiply(magnitude, operand)


class TestManProgram:
    def test_accepts_man_representable(self):
        terms = decompose_magnitude(0b100_0100, LAYOUT_8BIT, ALPHA_1)
        assert all(term.alphabet == 1 for term in terms)

    def test_rejects_non_man_weight(self):
        with pytest.raises(UnsupportedQuartetError):
            decompose_magnitude(3, LAYOUT_8BIT, ALPHA_1)


class TestMANMultiplier:
    def test_alphabet_set_is_one(self):
        assert MAN.alphabet_set is ALPHA_1
        assert MAN.precompute_bank(5) == {1: 5}   # no pre-computer bank

    def test_multiply_on_grid(self):
        c = WeightConstrainer(8, ALPHA_1)
        for w in range(-127, 128, 5):
            cw = c.constrain(w)
            assert MAN.multiply(cw, 9) == cw * 9

    def test_multiply_off_grid_raises(self):
        with pytest.raises(UnsupportedQuartetError):
            MAN.multiply(3, 9)

    def test_nearest_fallback(self):
        man = AlphabetSetMultiplier(8, ALPHA_1, fallback="nearest")
        # weight 3 -> nearest MAN-supported quartet value under {1}
        assert man.multiply(3, 10) == man.effective_weight(3) * 10

    def test_program_roundtrip(self):
        man = AlphabetSetMultiplier(8, ALPHA_1, fallback="nearest")
        for w in range(0, 128, 7):
            effective = man.effective_weight(w)
            terms = decompose_magnitude(effective, LAYOUT_8BIT, ALPHA_1)
            assert shift_add(terms, 13) == effective * 13
            assert man.multiply(w, 13) == effective * 13

    def test_multiply_array(self):
        c = WeightConstrainer(8, ALPHA_1)
        weights = c.constrain_array(np.arange(-127, 128))
        np.testing.assert_array_equal(
            MAN.multiply_array(weights, np.int64(4)), weights * 4)


class TestOperationCountsAcrossSets:
    """Smaller alphabet sets never need more adds per weight (same quartet
    count), and the MAN uses no multiplies at all — the premise of the
    energy claims."""

    def test_full_set_adds_bound(self):
        for magnitude in range(128):
            terms = decompose_magnitude(magnitude, LAYOUT_8BIT,
                                        FULL_ALPHABETS)
            assert len(terms) <= 2  # two quartets -> at most one add

    def test_12bit_adds_bound(self):
        for magnitude in range(0, 2048, 17):
            terms = decompose_magnitude(magnitude, LAYOUT_12BIT,
                                        FULL_ALPHABETS)
            assert len(terms) <= 3  # three quartets
