"""Tests for the CSHM processing engine."""

import pytest

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.hardware.engine import (
    LayerWork,
    NetworkTopology,
    ProcessingEngine,
)

SVHN_SIZES = [734, 242, 198, 194, 182, 10]
TICH_SIZES = [305, 190, 175, 80, 36]
MAN, ASM2, ASM4 = (Multiplier(aset) for aset in (ALPHA_1, ALPHA_2, ALPHA_4))


@pytest.fixture(scope="module")
def svhn():
    return NetworkTopology.from_layer_sizes("svhn", 1024, SVHN_SIZES)


class TestLayerWork:
    def test_total_macs(self):
        assert LayerWork("fc", 100, 1024).total_macs == 102400

    def test_rejects_zero_neurons(self):
        with pytest.raises(ValueError):
            LayerWork("fc", 0, 10)

    def test_rejects_negative_macs(self):
        with pytest.raises(ValueError):
            LayerWork("fc", 10, -1)


class TestNetworkTopology:
    def test_from_layer_sizes_macs(self):
        t = NetworkTopology.from_layer_sizes("mnist", 1024, [100, 10])
        assert t.total_macs == 1024 * 100 + 100 * 10
        assert t.total_neurons == 110

    def test_table4_svhn_counts(self, svhn):
        # Table IV: 1560 neurons; synapses = MACs + biases
        assert svhn.total_neurons == 1560
        assert svhn.total_macs + svhn.total_neurons == 1054260

    def test_table4_tich_counts(self):
        t = NetworkTopology.from_layer_sizes("tich", 1024, TICH_SIZES)
        assert t.total_neurons == 786
        assert t.total_macs + t.total_neurons == 421186

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NetworkTopology("empty", ())


class TestCycles:
    def test_units_divide_neurons(self):
        engine = ProcessingEngine(8, MAN)
        layer = LayerWork("fc", 8, 100)
        assert engine.layer_cycles(layer) == 2 * 100

    def test_ragged_group_rounds_up(self):
        engine = ProcessingEngine(8, MAN)
        layer = LayerWork("fc", 9, 100)
        assert engine.layer_cycles(layer) == 3 * 100

    def test_svhn_last_two_layer_fraction(self, svhn):
        """Paper §VI.E: the last 2 layers of the 6-layer SVHN net use only
        ~3.84% of total processing cycles (our reconstruction: ~3.6%)."""
        report = ProcessingEngine(8, MAN).run(svhn)
        fraction = report.layer_cycle_fraction(2)
        assert 0.025 <= fraction <= 0.05

    def test_fraction_bounds(self, svhn):
        report = ProcessingEngine(8, MAN).run(svhn)
        assert report.layer_cycle_fraction(0) == 0.0
        assert report.layer_cycle_fraction(len(SVHN_SIZES)) == 1.0
        with pytest.raises(ValueError):
            report.layer_cycle_fraction(7)

    def test_cycles_independent_of_alphabets(self, svhn):
        conv = ProcessingEngine(8, CONVENTIONAL).run(svhn)
        man = ProcessingEngine(8, MAN).run(svhn)
        assert conv.cycles == man.cycles  # iso-speed, same schedule


class TestEnergy:
    def test_man_saves_energy(self, svhn):
        conv = ProcessingEngine(8, CONVENTIONAL).run(svhn)
        man = ProcessingEngine(8, MAN).run(svhn)
        assert man.energy_nj < conv.energy_nj

    def test_energy_ordering_by_alphabets(self, svhn):
        conv = ProcessingEngine(8, CONVENTIONAL).run(svhn).energy_nj
        a4 = ProcessingEngine(8, ASM4).run(svhn).energy_nj
        a2 = ProcessingEngine(8, ASM2).run(svhn).energy_nj
        a1 = ProcessingEngine(8, MAN).run(svhn).energy_nj
        assert a1 < a2 < a4 < conv

    def test_energy_scales_with_network_size(self):
        """Paper Fig. 9: savings grow ~linearly with NN size."""
        small = NetworkTopology.from_layer_sizes("s", 64, [32, 10])
        large = NetworkTopology.from_layer_sizes("l", 1024, [512, 10])
        engine_conv = ProcessingEngine(8, CONVENTIONAL)
        engine_man = ProcessingEngine(8, MAN)
        saving_small = (engine_conv.run(small).energy_nj
                        - engine_man.run(small).energy_nj)
        saving_large = (engine_conv.run(large).energy_nj
                        - engine_man.run(large).energy_nj)
        ratio_macs = large.total_macs / small.total_macs
        ratio_saving = saving_large / saving_small
        assert ratio_saving == pytest.approx(ratio_macs, rel=0.01)

    def test_latency_from_cycles(self, svhn):
        report = ProcessingEngine(8, MAN).run(svhn)
        assert report.latency_us == pytest.approx(
            report.cycles / (3.0 * 1e3))


class TestMixedPlans:
    def test_mixed_label(self, svhn):
        engine = ProcessingEngine(8, MAN)
        report = engine.run(svhn, [MAN] * 4 + [ASM2, ASM4])
        assert report.design_label.startswith("mixed(")

    def test_uniform_label(self, svhn):
        engine = ProcessingEngine(8, MAN)
        assert engine.run(svhn).design_label == "{1}"

    def test_mixed_energy_between_pure_plans(self, svhn):
        """§VI.E: upgrading only the small final layers costs almost nothing."""
        engine = ProcessingEngine(8, MAN)
        man = engine.run(svhn)
        mixed = engine.run(svhn, [MAN] * 4 + [ASM2, ASM4])
        a4 = ProcessingEngine(8, ASM4).run(svhn)
        assert man.energy_nj < mixed.energy_nj < a4.energy_nj
        overhead = mixed.energy_nj / man.energy_nj - 1
        assert overhead < 0.05  # "quite small in practice"

    def test_wrong_plan_length(self, svhn):
        with pytest.raises(ValueError):
            ProcessingEngine(8, MAN).run(svhn, [MAN])

    def test_conventional_entries_allowed(self, svhn):
        engine = ProcessingEngine(8, MAN)
        report = engine.run(svhn, [CONVENTIONAL] * 5 + [MAN])
        assert "conventional" in report.design_label


class TestDesignCache:
    def test_designs_reused(self, svhn):
        engine = ProcessingEngine(8, MAN)
        engine.run(svhn)
        engine.run(svhn)
        assert len(engine._design_cache) == 1
