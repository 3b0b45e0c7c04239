"""Bit-identity of the fast simulation and projection kernels.

The fast backends of :mod:`repro.kernels.simulate` and
:mod:`repro.kernels.projection` claim bit-identical results to the
reference loops they vectorise.  This suite enforces the claim with
seeded property-style sweeps: simulator traces across units x fan_in x
alphabet sets (including the multiplierless MAN and the conventional
engine) x ragged tail groups, hypothesis-generated layers fed straight
to both simulation kernels, and projector equality/idempotence across
word widths under randomly drifting weights that cross power-of-two
format boundaries (exercising the fast kernel's QFormat memoization).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4, ALPHA_8
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.hardware.engine import ProcessingEngine
from repro.hardware.simulator import CycleAccurateEngine
from repro.kernels import get_backend
from repro.kernels.projection import project_fast, project_reference
from repro.kernels.simulate import (simulate_layer_fast,
                                    simulate_layer_reference)
from repro.training.constrained import ConstraintProjector

ALPHABET_CASES = {
    "conventional": None,
    "man": ALPHA_1,              # multiplierless: no bank
    "asm2": ALPHA_2,
    "asm8": ALPHA_8,
}


def _constrained_weights(shape, bits, aset, rng):
    limit = 2 ** (bits - 1) - 1
    raw = rng.integers(-limit, limit + 1, size=shape)
    if aset is None:
        return raw
    return WeightConstrainer(bits, aset).constrain_array(raw)


class TestSimulatorBitIdentity:
    """fast trace == reference trace, across the whole grid."""

    @pytest.mark.parametrize("alphabet", sorted(ALPHABET_CASES))
    @pytest.mark.parametrize("units", [1, 4, 10])
    @pytest.mark.parametrize("fan_in", [1, 7, 64])
    def test_traces_identical(self, alphabet, units, fan_in):
        aset = ALPHABET_CASES[alphabet]
        seed = (sorted(ALPHABET_CASES).index(alphabet) * 10000
                + units * 100 + fan_in)
        rng = np.random.default_rng(seed)
        # neuron counts cover full groups, one ragged tail and fewer
        # neurons than lanes
        for neurons in (1, units, 2 * units + 1):
            weights = _constrained_weights((fan_in, neurons), 8, aset, rng)
            inputs = rng.integers(-120, 121, size=fan_in)
            ref = CycleAccurateEngine(
                8, Multiplier(aset), units=units, backend="reference"
            ).run_layer(weights, inputs)
            fast = CycleAccurateEngine(
                8, Multiplier(aset), units=units, backend="fast"
            ).run_layer(weights, inputs)
            assert ref == fast

    def test_twelve_bit_traces_identical(self):
        rng = np.random.default_rng(99)
        weights = _constrained_weights((31, 9), 12, ALPHA_4, rng)
        inputs = rng.integers(-2000, 2001, size=31)
        ref = CycleAccurateEngine(12, Multiplier(ALPHA_4),
                                  backend="reference").run_layer(weights,
                                                                 inputs)
        fast = CycleAccurateEngine(12, Multiplier(ALPHA_4),
                                   backend="fast").run_layer(weights, inputs)
        assert ref == fast

    def test_sparse_stream_identical(self):
        """Zero-heavy activation streams (the data-dependence case)."""
        rng = np.random.default_rng(5)
        weights = _constrained_weights((40, 6), 8, ALPHA_2, rng)
        inputs = rng.integers(-120, 121, size=40)
        inputs[::2] = 0
        ref = CycleAccurateEngine(8, Multiplier(ALPHA_2),
                                  backend="reference").run_layer(weights,
                                                                 inputs)
        fast = CycleAccurateEngine(8, Multiplier(ALPHA_2),
                                   backend="fast").run_layer(weights, inputs)
        assert ref == fast

    def test_empty_layer(self):
        """Zero neurons: both backends report an idle engine."""
        weights = np.zeros((4, 0), dtype=np.int64)
        inputs = np.ones(4, dtype=np.int64)
        for backend in ("reference", "fast"):
            trace = CycleAccurateEngine(
                8, CONVENTIONAL, backend=backend).run_layer(weights, inputs)
            assert trace.cycles == 0
            assert trace.utilization == 0.0
            assert trace.toggles.total == 0

    def test_auto_resolves_to_fast(self):
        man = Multiplier(ALPHA_1)
        assert CycleAccurateEngine(8, man).backend == "fast"
        assert CycleAccurateEngine(
            8, man, backend="reference").backend == "reference"

    def test_engine_simulator_factory(self):
        """ProcessingEngine hands its backend to memoized simulators."""
        engine = ProcessingEngine(8, backend="reference")
        sim = engine.simulator(Multiplier(ALPHA_2))
        assert sim.backend == "reference"
        assert sim.units == engine.units
        assert engine.simulator(Multiplier(ALPHA_2)) is sim   # memoized
        conventional = engine.simulator(CONVENTIONAL)
        assert conventional.multiplier == CONVENTIONAL
        assert conventional is not sim


def _signed(bits):
    return st.integers(-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)


@st.composite
def _sim_layers(draw):
    """Plain kernel inputs: weights, inputs, lane count, bank multiples."""
    fan_in = draw(st.integers(1, 64))
    neurons = draw(st.integers(1, 13))
    weights = draw(hnp.arrays(np.int64, (fan_in, neurons),
                              elements=_signed(draw(st.integers(4, 16)))))
    inputs = draw(hnp.arrays(np.int64, fan_in,
                             elements=_signed(draw(st.integers(4, 16)))))
    units = draw(st.integers(1, 8))
    bank = draw(st.lists(st.sampled_from(range(3, 16, 2)), max_size=4,
                         unique=True))
    return weights, inputs, units, tuple(sorted(bank))


# 64 full-scale 16-bit MACs: every accumulator passes 2**31 (and 2**32)
_OVER_32_BITS = (np.full((64, 5), -2**15, dtype=np.int64),
                 np.full(64, -2**15, dtype=np.int64), 2, (3, 5, 7))


class TestSimulateKernelsGenerated:
    """simulate_layer_reference == simulate_layer_fast on generated
    layers: ragged final groups, 4-16-bit operands, with and without a
    pre-computer bank, and accumulators wider than the 32-bit mask."""

    @settings(max_examples=80, deadline=None)
    @example(layer=_OVER_32_BITS)
    @given(layer=_sim_layers())
    def test_fast_matches_reference(self, layer):
        weights, inputs, units, bank = layer
        reference = simulate_layer_reference(weights, inputs, units, bank)
        assert simulate_layer_fast(weights, inputs, units, bank) \
            == reference
        assert reference.cycles == -(-weights.shape[1] // units) \
            * weights.shape[0]

    def test_accumulator_toggles_wrap_at_32_bits(self):
        """Golden model in Python ints: accumulators past 2**32 toggle
        only their low ACC_BITS bits, on both backends."""
        weights, inputs, units, bank = _OVER_32_BITS
        expected = peak = 0
        for lane in weights.T.tolist():
            acc = 0
            for w, x in zip(lane, inputs.tolist()):
                expected += bin((acc ^ (acc + w * x)) & 0xFFFFFFFF).count("1")
                acc += w * x
                peak = max(peak, acc)
        assert peak > 2**32
        for kernel in (simulate_layer_reference, simulate_layer_fast):
            counts = kernel(weights, inputs, units, bank)
            assert counts.toggles["accumulators"] == expected


class TestProjectorBitIdentity:
    """fast projection == reference projection, and both idempotent."""

    @pytest.mark.parametrize("bits", [8, 12])
    @pytest.mark.parametrize("aset", [ALPHA_1, ALPHA_2, ALPHA_4],
                             ids=["man", "asm2", "asm4"])
    def test_drifting_weights_identical(self, bits, aset):
        """Simulated retrain steps: perturb, project, compare bitwise.

        The growing scale sweeps max|w| across power-of-two boundaries,
        so the fast kernel's memoized QFormat is repeatedly invalidated
        and rebuilt.
        """
        rng = np.random.default_rng(bits * 100 + len(aset))
        constrainer = WeightConstrainer(bits, aset)
        w_ref = rng.normal(scale=0.4, size=(37, 11))
        w_fast = w_ref.copy()
        cache = {}
        for step in range(12):
            ref = project_reference(w_ref, bits, constrainer, {})
            fast = project_fast(w_fast, bits, constrainer, cache)
            assert ref.tobytes() == fast.tobytes(), (bits, step)
            noise = rng.normal(scale=0.05 * 1.7 ** step, size=ref.shape)
            w_ref = ref + noise
            w_fast = fast + noise

    def test_projection_idempotent(self):
        rng = np.random.default_rng(2)
        constrainer = WeightConstrainer(8, ALPHA_2)
        w = rng.normal(scale=0.7, size=(64, 16))
        cache = {}
        once = project_fast(w.copy(), 8, constrainer, cache)
        twice = project_fast(once.copy(), 8, constrainer, cache)
        assert once.tobytes() == twice.tobytes()

    def test_saturation_and_zeros_identical(self):
        """Edge values: exact zeros, sign flips, out-of-range magnitudes
        (including the most-negative-code saturation path)."""
        constrainer = WeightConstrainer(8, ALPHA_2)
        w = np.array([0.0, -0.0, 1e-15, -1e-15, 0.5, -0.5, 250.0, -250.0,
                      0.9921875, -1.0])
        ref = project_reference(w.copy(), 8, constrainer, {})
        fast = project_fast(w.copy(), 8, constrainer, {})
        assert ref.tobytes() == fast.tobytes()

    def test_non_contiguous_falls_back(self):
        constrainer = WeightConstrainer(8, ALPHA_2)
        base = np.random.default_rng(0).normal(size=(8, 8))
        view = base[:, ::2]                       # not C-contiguous
        ref = project_reference(view.copy(), 8, constrainer, {})
        fast = project_fast(view, 8, constrainer, {})
        assert np.array_equal(ref, fast)


class TestConstraintProjectorBackends:
    """The projector front end drives both kernels identically."""

    def _network(self, seed=7):
        from repro.datasets.registry import mlp

        return mlp([64, 12, 4], name="t", seed=seed)

    @pytest.mark.parametrize("bits", [8, 12])
    def test_networks_project_identically(self, bits):
        net_ref = self._network()
        net_fast = self._network()
        ref = ConstraintProjector(net_ref, bits, ALPHA_2,
                                  backend="reference")
        fast = ConstraintProjector(net_fast, bits, ALPHA_2, backend="fast")
        assert ref.backend == "reference"
        assert fast.backend == "fast"
        rng = np.random.default_rng(bits)
        for _ in range(5):
            ref.project()
            fast.project()
            for lr, lf in zip(net_ref.layers, net_fast.layers):
                for key in lr.params:
                    assert lr.params[key].tobytes() == \
                        lf.params[key].tobytes()
            assert ref.violations() == 0
            assert fast.violations() == 0
            for lr, lf in zip(net_ref.layers, net_fast.layers):
                for key, value in lr.params.items():
                    noise = rng.normal(scale=0.02, size=value.shape)
                    lr.params[key] = value + noise
                    lf.params[key] = lf.params[key] + noise

    def test_default_backend_is_auto(self):
        projector = ConstraintProjector(self._network(), 8, ALPHA_1)
        assert projector.backend == get_backend("auto").name

    def test_projection_preserves_bias(self):
        """Biases never pass through the multiplier on either backend."""
        for backend in ("reference", "fast"):
            net = self._network()
            bias_before = [layer.params["b"].copy()
                           for layer in net.layers if "b" in layer.params]
            ConstraintProjector(net, 8, ALPHA_2, backend=backend).project()
            bias_after = [layer.params["b"]
                          for layer in net.layers if "b" in layer.params]
            for before, after in zip(bias_before, bias_after):
                assert np.array_equal(before, after)


class TestSimulatedEnergyStage:
    """The energy stage's toggle simulation plumbing (sim_samples)."""

    BUDGET = {"name": "micro", "n_train": 60, "n_test": 30,
              "max_epochs": 1, "retrain_epochs": 1}

    def _config(self, **overrides):
        from repro.pipeline.config import PipelineConfig

        base = dict(app="mnist_mlp", designs=("conventional", "asm1"),
                    stages=("train", "quantize", "constrain", "evaluate",
                            "energy"),
                    budget=self.BUDGET, sim_samples=2)
        base.update(overrides)
        return PipelineConfig(**base)

    def test_simulated_rows_and_backend_independence(self):
        from repro.pipeline.pipeline import Pipeline

        report = Pipeline(self._config()).run()
        for row in report.energy.rows:
            assert row.sim_energy_nj > 0
            assert row.sim_toggles > 0
            # the simulator schedules exactly the analytic cycle count
            assert row.sim_cycles == row.cycles
            assert row.sim_macs > 0
        # the fully-reference run reproduces the same energy result bit
        # for bit (forward, simulation, projection and training alike)
        reference = Pipeline(self._config(backend="reference")).run()
        assert reference.energy == report.energy

    def test_sim_samples_zero_keeps_analytic_rows(self):
        from repro.pipeline.pipeline import Pipeline

        config = self._config(sim_samples=0,
                              stages=("train", "quantize", "constrain",
                                      "energy"))
        report = Pipeline(config).run()
        for row in report.energy.rows:
            assert row.sim_energy_nj == 0.0
            assert row.sim_toggles == 0.0
            assert row.sim_cycles == 0

    def test_cache_keys(self):
        """backend never splits the cache; sim_samples splits only the
        energy stage, and only when nonzero."""
        from repro.pipeline.pipeline import Pipeline

        base = Pipeline(self._config(sim_samples=0))
        simulated = Pipeline(self._config(sim_samples=4))
        other_backend = Pipeline(self._config(sim_samples=4,
                                              backend="reference"))
        plan = base.plan()
        sim_plan = simulated.plan()
        for stage in plan:
            assert base.stage_key(stage, plan) != "", stage
        for stage in sim_plan:
            assert simulated.stage_key(stage, sim_plan) == \
                other_backend.stage_key(stage, sim_plan), stage
        assert base.stage_key("energy", plan) != \
            simulated.stage_key("energy", sim_plan)
        for stage in ("train", "quantize", "constrain", "evaluate"):
            assert base.stage_key(stage, plan) == \
                simulated.stage_key(stage, sim_plan), stage

    def test_energy_requires_weights_when_simulating(self):
        from repro.pipeline.pipeline import Pipeline

        plan = Pipeline(self._config(stages=("energy",))).plan()
        assert "train" in plan and "constrain" in plan
        analytic_plan = Pipeline(self._config(
            sim_samples=0, stages=("energy",))).plan()
        assert analytic_plan == ("energy",)
