"""Tests for neuron datapath designs and the iso-speed comparisons.

The classes under ``TestPaperFig8`` / ``TestPaperFig10`` assert the paper's
headline hardware claims hold in the model.
"""

import pytest

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4, FULL_ALPHABETS
from repro.asm.multiplier import Multiplier
from repro.hardware.neuron import (
    CLOCK_GHZ,
    ASMNeuron,
    ConventionalNeuron,
    NeuronConfig,
    clock_for_bits,
    make_neuron,
)
from repro.hardware.technology import IBM45


@pytest.fixture(scope="module")
def costs():
    """Iso-speed costs for every design at both widths."""
    table = {}
    for bits in (8, 12):
        table[(bits, "conv")] = make_neuron(bits).cost()
        for aset in (ALPHA_4, ALPHA_2, ALPHA_1):
            table[(bits, len(aset))] = make_neuron(
                bits, Multiplier(aset)).cost()
    return table


class TestFactory:
    def test_conventional(self):
        assert isinstance(make_neuron(8), ConventionalNeuron)

    def test_asm(self):
        design = make_neuron(8, Multiplier(ALPHA_4))
        assert isinstance(design, ASMNeuron)
        assert not design.is_man

    def test_man(self):
        design = make_neuron(8, Multiplier(ALPHA_1))
        assert design.is_man
        assert design.name == "man-8b-1a"

    def test_default_clocks(self):
        assert make_neuron(8).clock_ghz == CLOCK_GHZ[8] == 3.0
        assert make_neuron(12).clock_ghz == CLOCK_GHZ[12] == 2.5

    def test_unusual_width_borrows_nearest_clock(self):
        # widths off Table V borrow the nearest published clock (the
        # design-space explorer sweeps arbitrary word widths)
        assert clock_for_bits(16) == CLOCK_GHZ[12]
        assert clock_for_bits(6) == CLOCK_GHZ[8]
        assert clock_for_bits(10) == CLOCK_GHZ[8]  # tie -> narrower
        assert make_neuron(16).clock_ghz == CLOCK_GHZ[12]
        assert make_neuron(16, clock_ghz=2.0).clock_ghz == 2.0


class TestStructure:
    def test_man_has_no_bank_stage(self):
        design = make_neuron(8, Multiplier(ALPHA_1))
        assert "bank" not in [stage.name for stage in design.stages]

    def test_asm_has_bank_stage(self):
        design = make_neuron(8, Multiplier(ALPHA_2))
        assert "bank" in [stage.name for stage in design.stages]

    def test_conventional_has_multiplier(self):
        design = make_neuron(8)
        parts = [c.name for stage in design.stages for c, _ in stage.parts]
        assert any(name.startswith("mult") for name in parts)

    def test_asm_has_no_multiplier(self):
        design = make_neuron(8, Multiplier(ALPHA_2))
        parts = [c.name for stage in design.stages for c, _ in stage.parts]
        assert not any(name.startswith("mult8") for name in parts)
        assert any(name.startswith("bshift") for name in parts)

    def test_man_has_no_select_mux(self):
        design = make_neuron(8, Multiplier(ALPHA_1))
        parts = [c.name for stage in design.stages for c, _ in stage.parts]
        assert not any(name.startswith("mux") for name in parts)

    def test_multi_alphabet_has_select_mux(self):
        design = make_neuron(8, Multiplier(ALPHA_4))
        parts = [c.name for stage in design.stages for c, _ in stage.parts]
        assert any(name.startswith("mux4to1") for name in parts)

    def test_report_mentions_stages(self):
        text = make_neuron(12, Multiplier(ALPHA_2)).report()
        for stage in ("bank", "multiply", "accumulate", "activate"):
            assert f"[{stage}]" in text


class TestIsoSpeedSizing:
    def test_conventional_misses_timing_and_sizes_up(self):
        cost = make_neuron(8).cost()
        assert cost.critical_path_ps > 1000 / 3.0
        assert cost.max_sizing_factor > 1.0

    def test_asm_designs_meet_timing(self):
        for bits in (8, 12):
            for aset in (ALPHA_4, ALPHA_2, ALPHA_1):
                cost = make_neuron(bits, Multiplier(aset)).cost()
                assert cost.max_sizing_factor == 1.0, (bits, str(aset))

    def test_relaxed_clock_removes_penalty(self):
        relaxed = make_neuron(8, clock_ghz=0.5).cost()
        assert relaxed.max_sizing_factor == 1.0

    def test_sizing_grows_area(self):
        fast = make_neuron(8, clock_ghz=3.0).cost()
        slow = make_neuron(8, clock_ghz=0.5).cost()
        assert fast.area_um2 > slow.area_um2

    def test_power_is_energy_times_clock(self):
        cost = make_neuron(8).cost()
        assert cost.power_uw == pytest.approx(
            cost.energy_per_mac_fj * 3.0)


class TestPaperFig8Power:
    """Fig. 8 anchors (normalised power), tolerance +/-0.12."""

    @pytest.mark.parametrize("bits,alphabets,paper", [
        (8, 4, 0.92), (8, 2, 0.74), (8, 1, 0.65),
        (12, 2, 0.79), (12, 1, 0.40),
    ])
    def test_normalized_power(self, costs, bits, alphabets, paper):
        ratio = costs[(bits, alphabets)].normalized_to(
            costs[(bits, "conv")])["power"]
        assert ratio == pytest.approx(paper, abs=0.25)

    def test_man_power_reductions_headline(self, costs):
        """Abstract: '35% and 60% reduction in energy ... for 8 and 12 bits'."""
        r8 = costs[(8, 1)].normalized_to(costs[(8, "conv")])["power"]
        r12 = costs[(12, 1)].normalized_to(costs[(12, "conv")])["power"]
        assert 0.25 <= 1 - r8 <= 0.45
        assert 0.45 <= 1 - r12 <= 0.70

    def test_power_monotone_in_alphabets(self, costs):
        for bits in (8, 12):
            conv = costs[(bits, "conv")]
            p4 = costs[(bits, 4)].normalized_to(conv)["power"]
            p2 = costs[(bits, 2)].normalized_to(conv)["power"]
            p1 = costs[(bits, 1)].normalized_to(conv)["power"]
            assert p1 < p2 < p4 < 1.0


class TestPaperFig10Area:
    """Fig. 10 anchors (normalised area)."""

    @pytest.mark.parametrize("bits,alphabets,paper,tol", [
        (8, 4, 0.95, 0.15), (8, 2, 0.75, 0.15), (8, 1, 0.63, 0.12),
        (12, 1, 0.38, 0.10),
    ])
    def test_normalized_area(self, costs, bits, alphabets, paper, tol):
        ratio = costs[(bits, alphabets)].normalized_to(
            costs[(bits, "conv")])["area"]
        assert ratio == pytest.approx(paper, abs=tol)

    def test_man_area_reductions_headline(self, costs):
        """Abstract: '37% and 62% reduction in area' for 8/12-bit MAN."""
        r8 = costs[(8, 1)].normalized_to(costs[(8, "conv")])["area"]
        r12 = costs[(12, 1)].normalized_to(costs[(12, "conv")])["area"]
        assert 0.25 <= 1 - r8 <= 0.45
        assert 0.52 <= 1 - r12 <= 0.72

    def test_area_monotone_in_alphabets(self, costs):
        for bits in (8, 12):
            conv = costs[(bits, "conv")]
            a4 = costs[(bits, 4)].normalized_to(conv)["area"]
            a2 = costs[(bits, 2)].normalized_to(conv)["area"]
            a1 = costs[(bits, 1)].normalized_to(conv)["area"]
            assert a1 < a2 < a4 <= 1.05

    def test_twelve_bit_savings_exceed_eight_bit(self, costs):
        """The paper's key scaling claim: MAN savings grow with word width."""
        r8 = costs[(8, 1)].normalized_to(costs[(8, "conv")])["area"]
        r12 = costs[(12, 1)].normalized_to(costs[(12, "conv")])["area"]
        assert r12 < r8


class TestFullAlphabetASM:
    def test_exact_asm_still_cheaper_than_sized_conventional(self):
        """Even the 8-alphabet (exact) ASM avoids the array multiplier's
        timing wall at 12 bits."""
        conv = make_neuron(12).cost()
        full = make_neuron(12, Multiplier(FULL_ALPHABETS)).cost()
        assert full.area_um2 < conv.area_um2


class TestNeuronConfig:
    def test_custom_config_respected(self):
        config = NeuronConfig(share_units=8)
        design = make_neuron(8, Multiplier(ALPHA_2), config=config)
        assert design.config.share_units == 8

    def test_more_sharing_cheaper_bank(self):
        lone = make_neuron(8, Multiplier(ALPHA_4),
                           config=NeuronConfig(share_units=1)).cost()
        shared = make_neuron(8, Multiplier(ALPHA_4),
                             config=NeuronConfig(share_units=4)).cost()
        assert shared.area_um2 < lone.area_um2

    def test_sharing_does_not_matter_for_man(self):
        lone = make_neuron(8, Multiplier(ALPHA_1),
                           config=NeuronConfig(share_units=1)).cost()
        shared = make_neuron(8, Multiplier(ALPHA_1),
                             config=NeuronConfig(share_units=4)).cost()
        assert lone.area_um2 == pytest.approx(shared.area_um2)
