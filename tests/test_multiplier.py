"""Tests for the bit-accurate ASM and conventional multiplier models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.alphabet import (
    ALPHA_1,
    ALPHA_2,
    ALPHA_4,
    FULL_ALPHABETS,
    STANDARD_SETS,
)
from repro.asm.constraints import WeightConstrainer
from repro.asm.decompose import UnsupportedQuartetError
from repro.asm.multiplier import (
    CONVENTIONAL,
    FALLBACK_POLICIES,
    AlphabetSetMultiplier,
    ConventionalMultiplier,
    Multiplier,
)
from repro.hardware.simulator import CycleAccurateEngine
from repro.nn.quantized import QuantizationSpec


class TestConventionalMultiplier:
    def test_exact(self):
        m = ConventionalMultiplier(8)
        assert m.multiply(105, 66) == 105 * 66

    def test_signs(self):
        m = ConventionalMultiplier(8)
        assert m.multiply(-105, 66) == -105 * 66
        assert m.multiply(105, -66) == -105 * 66
        assert m.multiply(-105, -66) == 105 * 66

    def test_range_check_weight(self):
        with pytest.raises(OverflowError):
            ConventionalMultiplier(8).multiply(128, 1)

    def test_range_check_operand(self):
        with pytest.raises(OverflowError):
            ConventionalMultiplier(8).multiply(1, -129)

    def test_array(self):
        m = ConventionalMultiplier(8)
        w = np.array([-3, 0, 7])
        x = np.array([5, 5, 5])
        np.testing.assert_array_equal(m.multiply_array(w, x), w * x)


class TestASMExactness:
    """With the full alphabet set the ASM must be an exact multiplier."""

    def test_exhaustive_8bit_weights(self):
        m = AlphabetSetMultiplier(8, FULL_ALPHABETS)
        for w in range(-127, 128):
            assert m.multiply(w, 93) == w * 93

    def test_paper_fig2_walkthrough(self):
        # Fig. 2: W = 01001010, product = (4M << 4) + 10M = 74M
        m = AlphabetSetMultiplier(8, ALPHA_4)
        for operand in (-128, -17, 0, 3, 127):
            assert m.multiply(0b1001010, operand) == 74 * operand

    @given(st.integers(min_value=-2047, max_value=2047),
           st.integers(min_value=-2048, max_value=2047))
    def test_12bit_full_set_exact(self, weight, operand):
        m = AlphabetSetMultiplier(12, FULL_ALPHABETS)
        assert m.multiply(weight, operand) == weight * operand

    def test_most_negative_weight_saturates_magnitude(self):
        # |-128| does not fit the 7 magnitude bits; datapath sees 127
        m = AlphabetSetMultiplier(8, FULL_ALPHABETS)
        assert m.multiply(-128, 3) == -127 * 3


class TestASMOnConstrainedWeights:
    """Constrain-then-multiply must be exact for every alphabet set —
    the invariant the whole retraining methodology rests on."""

    @pytest.mark.parametrize("bits", [8, 12])
    @pytest.mark.parametrize("aset", [ALPHA_1, ALPHA_2, ALPHA_4],
                             ids=["a1", "a2", "a4"])
    def test_exact_on_grid(self, bits, aset):
        c = WeightConstrainer(bits, aset)
        m = AlphabetSetMultiplier(bits, aset)
        limit = 2 ** (bits - 1)
        step = 7 if bits == 12 else 1
        for w in range(-limit, limit, step):
            cw = c.constrain(w)
            assert m.multiply(cw, 77) == cw * 77

    def test_unconstrained_raises_under_error_policy(self):
        m = AlphabetSetMultiplier(8, ALPHA_2)
        with pytest.raises(UnsupportedQuartetError):
            m.multiply(105, 3)  # R = 9 unsupported


class TestFallbackPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            AlphabetSetMultiplier(8, ALPHA_2, fallback="wild")

    def test_policies_tuple(self):
        assert set(FALLBACK_POLICIES) == {"error", "nearest", "truncate"}

    def test_nearest_matches_paper_rounding(self):
        # quartet 9 under {1,3}: neighbours 8/12, threshold 10 -> 8
        m = AlphabetSetMultiplier(8, ALPHA_2, fallback="nearest")
        assert m.effective_weight(9) == 8
        # quartet 10 -> 12
        assert m.effective_weight(10) == 12

    def test_truncate_rounds_down(self):
        m = AlphabetSetMultiplier(8, ALPHA_2, fallback="truncate")
        assert m.effective_weight(9) == 8
        assert m.effective_weight(10) == 8
        assert m.effective_weight(15) == 12

    def test_nearest_no_carry_across_quartets(self):
        # per-quartet control logic cannot carry: 15 stays within quartet
        m = AlphabetSetMultiplier(8, ALPHA_2, fallback="nearest")
        assert m.effective_weight(15) == 12

    def test_effective_weight_sign(self):
        m = AlphabetSetMultiplier(8, ALPHA_2, fallback="nearest")
        for w in range(-127, 128):
            assert m.effective_weight(-w) == -m.effective_weight(w)

    @pytest.mark.parametrize("fallback", ["nearest", "truncate"])
    def test_multiply_equals_effective_times_operand(self, fallback):
        m = AlphabetSetMultiplier(8, ALPHA_1, fallback=fallback)
        for w in range(-127, 128, 3):
            assert m.multiply(w, 19) == m.effective_weight(w) * 19


class TestEffectiveWeightTable:
    def test_table_matches_scalar(self):
        m = AlphabetSetMultiplier(8, ALPHA_2, fallback="nearest")
        table = m.effective_weight_table()
        for w in range(-128, 128):
            assert table[w + 128] == m.effective_weight(w)

    def test_multiply_array_matches_scalar(self):
        m = AlphabetSetMultiplier(8, ALPHA_4, fallback="nearest")
        weights = np.arange(-128, 128)
        got = m.multiply_array(weights, np.int64(31))
        expected = np.array([m.multiply(int(w), 31) for w in weights])
        np.testing.assert_array_equal(got, expected)

    def test_error_policy_array_raises_on_unsupported(self):
        m = AlphabetSetMultiplier(8, ALPHA_2)
        with pytest.raises(UnsupportedQuartetError):
            m.multiply_array(np.array([105]), np.int64(2))

    def test_error_policy_array_ok_on_grid(self):
        c = WeightConstrainer(12, ALPHA_1)
        m = AlphabetSetMultiplier(12, ALPHA_1)
        weights = c.constrain_array(np.arange(-2048, 2048))
        np.testing.assert_array_equal(
            m.multiply_array(weights, np.int64(5)), weights * 5)

    def test_out_of_range_weights(self):
        m = AlphabetSetMultiplier(8, FULL_ALPHABETS)
        with pytest.raises(OverflowError):
            m.multiply_array(np.array([200]), np.int64(1))

    def test_broadcasting(self):
        m = AlphabetSetMultiplier(8, FULL_ALPHABETS)
        weights = np.array([[1, 2], [3, 4]])
        operands = np.array([10, 100])
        np.testing.assert_array_equal(
            m.multiply_array(weights, operands), weights * operands)


class TestPrecomputeBank:
    def test_bank_contents(self):
        m = AlphabetSetMultiplier(8, ALPHA_4)
        assert m.precompute_bank(10) == {1: 10, 3: 30, 5: 50, 7: 70}

    def test_man_bank_is_passthrough(self):
        m = AlphabetSetMultiplier(8, ALPHA_1)
        assert m.precompute_bank(42) == {1: 42}

    def test_bank_range_check(self):
        with pytest.raises(OverflowError):
            AlphabetSetMultiplier(8, ALPHA_1).precompute_bank(400)


class TestErrorProfile:
    def test_full_set_exact_except_most_negative(self):
        # the only non-exact weight is -128, whose magnitude saturates to 127
        m = AlphabetSetMultiplier(8, FULL_ALPHABETS)
        profile = m.error_profile()
        assert profile["max_abs_error"] == 1  # |-128 -> -127|
        assert profile["fraction_exact"] == pytest.approx(255 / 256)

    def test_smaller_sets_have_larger_error(self):
        profiles = {}
        for name, aset in (("a1", ALPHA_1), ("a2", ALPHA_2), ("a4", ALPHA_4)):
            m = AlphabetSetMultiplier(8, aset, fallback="nearest")
            profiles[name] = m.error_profile()["mean_abs_error"]
        assert profiles["a1"] >= profiles["a2"] >= profiles["a4"]

    def test_nearest_beats_truncate(self):
        near = AlphabetSetMultiplier(
            8, ALPHA_2, fallback="nearest").error_profile()
        trunc = AlphabetSetMultiplier(
            8, ALPHA_2, fallback="truncate").error_profile()
        assert near["mean_abs_error"] <= trunc["mean_abs_error"]


class TestDatapathCrossCheck:
    """The explicit select/shift/add path and the effective-weight view must
    agree everywhere — they model the same hardware."""

    @settings(max_examples=50)
    @given(st.integers(min_value=-2048, max_value=2047),
           st.integers(min_value=-2048, max_value=2047),
           st.sampled_from(["nearest", "truncate"]))
    def test_12bit_agreement(self, weight, operand, fallback):
        m = AlphabetSetMultiplier(12, ALPHA_2, fallback=fallback)
        assert m.multiply(weight, operand) == \
            m.effective_weight(weight) * operand

    def test_8bit_exhaustive_agreement(self):
        m = AlphabetSetMultiplier(8, ALPHA_4, fallback="nearest")
        table = m.effective_weight_table()
        for w in range(-128, 128):
            assert m.multiply(w, 11) == int(table[w + 128]) * 11


def _outcome(remap):
    """The remapped values as a list, or the type of the error raised
    (with the quartet it names, for an unsupported quartet)."""
    try:
        return np.asarray(remap()).tolist()
    except UnsupportedQuartetError as error:
        return UnsupportedQuartetError, error.value
    except (ValueError, OverflowError) as error:
        return type(error)


def _reference(bits, multiplier, fallback, weights):
    """Expected outcome of an array remap, from the scalar datapath model:
    a range error outranks an unsupported quartet (the array sites check
    the range first), and the first bad weight names the quartet.  The
    conventional remap is the identity, unchecked."""
    if multiplier == CONVENTIONAL:
        return [int(weight) for weight in weights]
    try:
        model = AlphabetSetMultiplier(bits, multiplier.alphabet_set,
                                      fallback=fallback)
    except ValueError as error:        # no quartet layout at this width
        return type(error)
    values, quartets = [], []
    for weight in weights:
        try:
            values.append(model.effective_weight(int(weight)))
        except OverflowError:
            return OverflowError
        except UnsupportedQuartetError as error:
            quartets.append(error.value)
    return (UnsupportedQuartetError, quartets[0]) if quartets else values


class TestOneRemap:
    """Every integer-domain remap site agrees with the explicit datapath:
    the forward pass's weight fold, ``multiply_array`` and the toggle
    simulator all return ``effective_weight``'s values, or raise the
    error type it raises (count 0 draws the conventional multiplier)."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(min_value=4, max_value=12),
           st.sampled_from([0] + sorted(STANDARD_SETS)),
           st.sampled_from(FALLBACK_POLICIES))
    def test_sites_match_datapath(self, data, bits, count, fallback):
        multiplier = Multiplier(STANDARD_SETS[count]) if count \
            else CONVENTIONAL
        high = (1 << (bits - 1)) - 1
        weights = np.array(data.draw(st.lists(
            st.integers(min_value=-high - 3, max_value=high + 2),
            min_size=1, max_size=8)), dtype=np.int64)
        expected = _reference(bits, multiplier, fallback, weights)
        assert _outcome(lambda: (AlphabetSetMultiplier(
            bits, multiplier.alphabet_set, fallback=fallback) if count
            else ConventionalMultiplier(bits)).multiply_array(
                weights, np.int64(1))) == expected
        if fallback == "error":        # the simulator has no fallback
            assert _outcome(lambda: CycleAccurateEngine(
                bits, multiplier).remap_weights(weights)) == expected
        # the fold quantises floats first, so it sees in-range codes only;
        # the conventional fold returns those codes unmapped
        floats = weights / float(high + 1)
        codes, _ = QuantizationSpec(bits).quantize_weights(floats)
        spec = QuantizationSpec(bits, multiplier, fallback=fallback)
        assert _outcome(lambda: spec.quantize_weights(floats)[0]) == \
            _reference(bits, multiplier, fallback, codes)

    def test_error_names_the_quartet(self):
        """Weight 105 is quartets (9, 6) at 8 bits; {1,3} lacks 9."""
        with pytest.raises(UnsupportedQuartetError) as raised:
            Multiplier(ALPHA_2).effective_weights(
                8, np.array([3, -105, 11]))
        assert raised.value.value == 9
        assert "quartet value 9 " in str(raised.value)


class TestMultiplier:
    """The one value that tells the conventional multiplier from an ASM."""

    CASES = [CONVENTIONAL] + [Multiplier(aset)
                              for aset in STANDARD_SETS.values()]

    @pytest.mark.parametrize("multiplier", CASES, ids=str)
    def test_token_round_trip(self, multiplier):
        assert Multiplier.from_token(multiplier.token) == multiplier

    def test_bank_multiples(self):
        assert CONVENTIONAL.bank_multiples == ()
        assert Multiplier(ALPHA_1).bank_multiples == ()
        assert Multiplier(ALPHA_2).bank_multiples == (3,)

    @pytest.mark.parametrize("bits", [8, 12])
    def test_constrained_conventional_is_the_plain_spec(self, bits):
        plain = QuantizationSpec(bits)
        constrained = QuantizationSpec.constrained(bits, CONVENTIONAL)
        assert constrained.label == plain.label
        weights = np.random.default_rng(bits).normal(size=(16, 9))
        folded, fmt = constrained.quantize_weights(weights)
        expected, expected_fmt = plain.quantize_weights(weights)
        assert fmt == expected_fmt
        assert folded.tobytes() == expected.tobytes()
