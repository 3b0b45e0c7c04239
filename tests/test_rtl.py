"""Tests for the Verilog RTL generator and its mini-interpreter."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4, FULL_ALPHABETS
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import (
    CONVENTIONAL,
    AlphabetSetMultiplier,
    Multiplier,
)
from repro.rtl import (
    evaluate_mac_product,
    generate_asm_mac,
    generate_conventional_mac,
    generate_precompute_bank,
    module_name,
)


class TestModuleNames:
    def test_names(self):
        assert module_name(8, CONVENTIONAL) == "conv_mac_8b"
        assert module_name(8, Multiplier(ALPHA_1)) == "man_mac_8b"
        assert module_name(12, Multiplier(ALPHA_2)) == "asm2_mac_12b"
        assert module_name(12, Multiplier(ALPHA_4)) == "asm4_mac_12b"


class TestStructure:
    def test_man_has_no_multiply_operator(self):
        """The MAN datapath must contain no '*' — shifts and adds only
        ('@(*)' sensitivity lists excluded)."""
        source = generate_asm_mac(8, ALPHA_1)
        body = "\n".join(line for line in source.splitlines()
                         if not line.strip().startswith("//"))
        assert "*" not in body.replace("@(*)", "@()")

    def test_man_has_no_bank_wires(self):
        source = generate_asm_mac(8, ALPHA_1)
        assert "mult_" not in source

    def test_asm2_has_exactly_one_bank_wire(self):
        source = generate_asm_mac(8, ALPHA_2)
        assert len(re.findall(r"wire signed \[\d+:0\] mult_3", source)) == 1

    def test_asm4_bank_wires(self):
        source = generate_asm_mac(12, ALPHA_4)
        for a in (3, 5, 7):
            assert f"mult_{a}" in source

    def test_conventional_uses_multiplier(self):
        source = generate_conventional_mac(8)
        assert "weight * act" in source

    def test_quartet_count_matches_layout(self):
        source8 = generate_asm_mac(8, ALPHA_1)
        source12 = generate_asm_mac(12, ALPHA_1)
        assert len(re.findall(r"reg signed .* lane\d+;", source8)) == 2
        assert len(re.findall(r"reg signed .* lane\d+;", source12)) == 3

    def test_case_arms_cover_all_quartet_values(self):
        source = generate_asm_mac(8, ALPHA_2)
        # 4-bit quartet: 16 arms; 3-bit MSB quartet: 8 arms
        assert len(re.findall(r"4'd\d+: lane0", source)) == 16
        assert len(re.findall(r"3'd\d+: lane1", source)) == 8

    def test_accumulator_guard_bits(self):
        source = generate_asm_mac(8, ALPHA_1, acc_guard_bits=4)
        assert "signed [19:0] acc" in source

    def test_error_fallback_rejected(self):
        with pytest.raises(ValueError):
            generate_asm_mac(8, ALPHA_2, fallback="error")

    def test_module_endmodule_balance(self):
        for source in (generate_asm_mac(8, ALPHA_2),
                       generate_conventional_mac(12),
                       generate_precompute_bank(8, ALPHA_4)):
            assert source.count("module ") - source.count("endmodule") == 0
            assert source.rstrip().endswith("endmodule")


class TestPrecomputeBankRTL:
    def test_ports_per_alphabet(self):
        source = generate_precompute_bank(8, ALPHA_4)
        for a in (3, 5, 7):
            assert f"mult_{a}" in source
        assert "mult_1" not in source  # pass-through needs no port

    def test_csd_adder_expressions(self):
        source = generate_precompute_bank(8, ALPHA_2)
        # 3 = 4 - 1 in canonical CSD
        assert "- (act <<< 0) + (act <<< 2)" in source


class TestSemanticEquivalence:
    """The emitted case logic must realise exactly the functional model."""

    @pytest.mark.parametrize("bits,aset", [
        (8, ALPHA_1), (8, ALPHA_2), (8, ALPHA_4),
        (12, ALPHA_1), (12, ALPHA_2),
    ], ids=["8b-1a", "8b-2a", "8b-4a", "12b-1a", "12b-2a"])
    def test_matches_model_on_grid(self, bits, aset):
        source = generate_asm_mac(bits, aset, fallback="nearest")
        model = AlphabetSetMultiplier(bits, aset, fallback="nearest")
        constrainer = WeightConstrainer(bits, aset)
        limit = 2 ** (bits - 1)
        step = 97 if bits == 12 else 17
        for raw in range(-limit + 1, limit, step):
            weight = constrainer.constrain(raw)
            for act in (-limit, -3, 0, 7, limit - 1):
                assert evaluate_mac_product(source, weight, act, bits) == \
                    model.multiply(weight, act)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=-127, max_value=127),
           st.integers(min_value=-128, max_value=127))
    def test_nearest_fallback_equivalence_8bit(self, weight, act):
        """Off-grid weights too: the RTL implements the fallback."""
        source = generate_asm_mac(8, ALPHA_2, fallback="nearest")
        model = AlphabetSetMultiplier(8, ALPHA_2, fallback="nearest")
        assert evaluate_mac_product(source, weight, act, 8) == \
            model.multiply(weight, act)

    def test_full_alphabet_rtl_is_exact(self):
        source = generate_asm_mac(8, FULL_ALPHABETS, fallback="nearest")
        for weight in range(-127, 128, 5):
            assert evaluate_mac_product(source, weight, 93, 8) == weight * 93


class TestInterpreter:
    def test_rejects_sourceless_product(self):
        with pytest.raises(ValueError):
            evaluate_mac_product("module m (); endmodule", 1, 1, 8)

    def test_unresolved_identifier_raises(self):
        from repro.rtl.interpreter import _eval_expr
        with pytest.raises(ValueError):
            _eval_expr("mystery_wire + 1", {})
