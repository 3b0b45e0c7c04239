"""Tests for the cycle-accurate CSHM engine simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.fixedpoint.binary import popcount_array
from repro.hardware.engine import LayerWork, ProcessingEngine
from repro.hardware.simulator import CycleAccurateEngine

RNG = np.random.default_rng(17)


class TestPopcountArray:
    def test_known_values(self):
        np.testing.assert_array_equal(
            popcount_array(np.array([0, 1, 3, 255])), [0, 1, 2, 8])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            popcount_array(np.array([-1]))

    @given(st.lists(st.integers(min_value=0, max_value=2**40),
                    min_size=1, max_size=20))
    def test_matches_scalar(self, values):
        from repro.fixedpoint.binary import popcount
        expected = [popcount(v) for v in values]
        np.testing.assert_array_equal(popcount_array(np.array(values)),
                                      expected)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.int64,
                      hnp.array_shapes(min_dims=0, max_dims=3,
                                       min_side=0, max_side=5),
                      elements=st.integers(0, 2**63 - 1)))
    def test_matches_golden_model(self, values):
        counts = popcount_array(values)
        assert counts.dtype == np.int64
        assert counts.shape == values.shape
        np.testing.assert_array_equal(counts, _golden_popcount(values))

    @pytest.mark.parametrize("value", [0, 1, 2**31 - 1, 2**31, 2**32 - 1,
                                       2**62, 2**63 - 1])
    def test_word_boundaries(self, value):
        counts = popcount_array(np.array([value, value], dtype=np.int64))
        assert counts.tolist() == [bin(value).count("1")] * 2

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2, 4)])
    def test_empty_keeps_shape_and_dtype(self, shape):
        counts = popcount_array(np.zeros(shape, dtype=np.int64))
        assert counts.shape == shape
        assert counts.dtype == np.int64

    def test_multi_dim(self):
        values = np.arange(24, dtype=np.int64).reshape(2, 3, 4) * 2**40 + 7
        counts = popcount_array(values)
        assert counts.shape == (2, 3, 4)
        np.testing.assert_array_equal(counts, _golden_popcount(values))

    @given(hnp.arrays(np.int64, st.integers(1, 8),
                      elements=st.integers(-2**63, 2**63 - 1)).filter(
                          lambda values: values.min() < 0))
    def test_rejects_any_negative(self, values):
        with pytest.raises(ValueError):
            popcount_array(values)


def _golden_popcount(values):
    """Element-wise ``bin(v).count("1")`` — the popcount golden model."""
    return np.array([bin(int(v)).count("1") for v in values.flat],
                    dtype=np.int64).reshape(values.shape)


def _constrained_weights(shape, bits, aset, rng=RNG):
    limit = 2 ** (bits - 1)
    raw = rng.integers(-limit + 1, limit, size=shape)
    return WeightConstrainer(bits, aset).constrain_array(raw)


class TestCycleCounts:
    def test_matches_analytic_engine(self):
        """Cycle count equals the analytic model's for the same layer."""
        weights = _constrained_weights((20, 10), 8, ALPHA_1)
        inputs = RNG.integers(-100, 100, size=20)
        sim = CycleAccurateEngine(8, Multiplier(ALPHA_1))
        trace = sim.run_layer(weights, inputs)
        analytic = ProcessingEngine(8, Multiplier(ALPHA_1)).layer_cycles(
            LayerWork("fc", 10, 20))
        assert trace.cycles == analytic

    def test_ragged_group_utilization(self):
        # 5 neurons on 4 lanes: second group runs 1/4 full
        weights = _constrained_weights((8, 5), 8, ALPHA_1)
        inputs = RNG.integers(-100, 100, size=8)
        trace = CycleAccurateEngine(8, Multiplier(ALPHA_1)).run_layer(
            weights, inputs)
        assert trace.utilization == pytest.approx((4 + 1) / (2 * 4))

    def test_full_groups_fully_utilized(self):
        weights = _constrained_weights((6, 8), 8, ALPHA_1)
        inputs = RNG.integers(-100, 100, size=6)
        trace = CycleAccurateEngine(8, Multiplier(ALPHA_1)).run_layer(
            weights, inputs)
        assert trace.utilization == 1.0

    def test_macs_counted(self):
        weights = _constrained_weights((6, 8), 8, ALPHA_1)
        inputs = RNG.integers(-100, 100, size=6)
        trace = CycleAccurateEngine(8, Multiplier(ALPHA_1)).run_layer(
            weights, inputs)
        assert trace.macs == 48


class TestEnergySemantics:
    def test_zero_inputs_minimal_energy(self):
        """An all-zero activation stream toggles almost nothing."""
        weights = _constrained_weights((16, 8), 8, ALPHA_1)
        zeros = np.zeros(16, dtype=np.int64)
        actives = RNG.integers(-120, 120, size=16)
        sim = CycleAccurateEngine(8, Multiplier(ALPHA_1))
        quiet = sim.run_layer(weights, zeros)
        busy = sim.run_layer(weights, actives)
        assert quiet.energy_nj < 0.05 * busy.energy_nj

    def test_data_dependence(self):
        """Sparser activations -> fewer toggles -> less energy."""
        weights = _constrained_weights((64, 8), 8, ALPHA_1)
        dense = RNG.integers(-120, 120, size=64)
        sparse = dense.copy()
        sparse[::2] = 0
        sim = CycleAccurateEngine(8, Multiplier(ALPHA_1))
        assert sim.run_layer(weights, sparse).energy_nj < \
            sim.run_layer(weights, dense).energy_nj

    def test_man_cheaper_than_conventional_on_same_data(self):
        """MAN has no bank toggles; with identical effective weights the
        conventional engine pays extra for nothing on this comparison."""
        weights = _constrained_weights((32, 8), 8, ALPHA_2)
        inputs = RNG.integers(-120, 120, size=32)
        man = CycleAccurateEngine(8, Multiplier(ALPHA_2)).run_layer(
            weights, inputs)
        assert man.toggles.bank_outputs > 0
        man1 = CycleAccurateEngine(
            8, Multiplier(ALPHA_1)).run_layer(
            WeightConstrainer(8, ALPHA_1).constrain_array(weights), inputs)
        assert man1.toggles.bank_outputs == 0

    def test_deterministic(self):
        weights = _constrained_weights((16, 8), 8, ALPHA_4)
        inputs = RNG.integers(-100, 100, size=16)
        sim = CycleAccurateEngine(8, Multiplier(ALPHA_4))
        a = sim.run_layer(weights, inputs)
        b = sim.run_layer(weights, inputs)
        assert a == b

    def test_toggle_totals(self):
        weights = _constrained_weights((8, 4), 8, ALPHA_2)
        inputs = RNG.integers(-100, 100, size=8)
        trace = CycleAccurateEngine(8, Multiplier(ALPHA_2)).run_layer(
            weights, inputs)
        t = trace.toggles
        assert t.total == (t.input_bus + t.bank_outputs + t.products
                           + t.accumulators)
        assert t.total > 0


class TestValidation:
    def test_unconstrained_weights_rejected(self):
        weights = np.full((4, 2), 105)  # R=9 unsupported under {1,3}
        inputs = np.ones(4, dtype=np.int64)
        with pytest.raises(ValueError):
            CycleAccurateEngine(8, Multiplier(ALPHA_2)).run_layer(
                weights, inputs)

    def test_conventional_accepts_any_weights(self):
        weights = np.full((4, 2), 105)
        inputs = np.ones(4, dtype=np.int64)
        trace = CycleAccurateEngine(8, CONVENTIONAL).run_layer(weights, inputs)
        assert trace.macs == 8

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            CycleAccurateEngine(8, CONVENTIONAL).run_layer(
                np.zeros((4, 2), dtype=np.int64),
                np.zeros(5, dtype=np.int64))

    def test_out_of_range_weights(self):
        with pytest.raises(OverflowError):
            CycleAccurateEngine(8, Multiplier(ALPHA_1)).run_layer(
                np.full((2, 2), 300), np.ones(2, dtype=np.int64))

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            CycleAccurateEngine(1)
        with pytest.raises(ValueError):
            CycleAccurateEngine(8, units=0)


class TestAgainstAnalyticModel:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=30),
           st.integers(min_value=1, max_value=12))
    def test_cycles_formula(self, fan_in, neurons):
        weights = _constrained_weights((fan_in, neurons), 8, ALPHA_1,
                                       rng=np.random.default_rng(0))
        inputs = np.random.default_rng(1).integers(
            -100, 100, size=fan_in)
        trace = CycleAccurateEngine(8, Multiplier(ALPHA_1)).run_layer(
            weights, inputs)
        assert trace.cycles == -(-neurons // 4) * fan_in

    def test_energy_same_order_as_analytic(self):
        """Toggle-based and average-based energy agree within ~10x (they
        model the same datapath with different abstraction levels)."""
        fan_in, neurons = 64, 16
        weights = _constrained_weights((fan_in, neurons), 8, ALPHA_1)
        inputs = RNG.integers(-120, 120, size=fan_in)
        sim_nj = CycleAccurateEngine(8, Multiplier(ALPHA_1)).run_layer(
            weights, inputs).energy_nj
        from repro.hardware.engine import NetworkTopology
        topo = NetworkTopology("t", (LayerWork("fc", neurons, fan_in),))
        analytic_nj = ProcessingEngine(8, Multiplier(ALPHA_1)).run(
            topo).energy_nj
        ratio = sim_nj / analytic_nj
        assert 0.1 < ratio < 10.0
