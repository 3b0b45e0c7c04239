"""Tests for constrained retraining, Algorithm 2 (the pipeline's ``ladder``
design) and mixed plans."""

import numpy as np
import pytest

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.datasets import mlp, synthetic_mnist
from repro.nn.optim import SGD
from repro.pipeline import Budget, Pipeline, PipelineConfig, \
    PipelineConfigError
from repro.training.constrained import (
    ConstraintProjector,
    constrained_trainer,
    weight_param_name,
)
from repro.training.mixed import build_mixed_plan

RNG = np.random.default_rng(5)


@pytest.fixture(scope="module")
def small_data():
    return synthetic_mnist(n_train=400, n_test=150, seed=0)


def fresh_model(seed=1):
    return mlp([1024, 30, 10], seed=seed)


class TestWeightParamName:
    def test_dense_and_conv(self):
        from repro.nn.layers import Conv2D, Dense, Flatten, ScaledAvgPool2D
        assert weight_param_name(Dense(2, 2)) == "W"
        assert weight_param_name(Conv2D(1, 1, 1)) == "W"
        assert weight_param_name(ScaledAvgPool2D(1)) == "gain"
        assert weight_param_name(Flatten()) is None


class TestConstraintProjector:
    def test_projection_removes_violations(self):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_1)
        projector.project()
        assert projector.violations() == 0

    def test_fresh_model_has_violations(self):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_1)
        assert projector.violations() > 0

    def test_projection_idempotent(self):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_2)
        projector.project()
        before = model.layers[0].params["W"].copy()
        projector.project()
        np.testing.assert_array_equal(model.layers[0].params["W"], before)

    def test_projection_bounded_movement(self):
        model = fresh_model()
        weights_before = model.layers[0].params["W"].copy()
        projector = ConstraintProjector(model, 8, ALPHA_4)
        projector.project()
        moved = np.abs(model.layers[0].params["W"] - weights_before)
        # movement bounded by a few LSBs of the 8-bit grid
        scale = np.abs(weights_before).max()
        assert moved.max() < scale * 8 / 127

    def test_biases_untouched(self):
        model = fresh_model()
        model.layers[0].params["b"] = RNG.normal(size=30)
        biases = model.layers[0].params["b"].copy()
        ConstraintProjector(model, 8, ALPHA_1).project()
        np.testing.assert_array_equal(model.layers[0].params["b"], biases)

    def test_layer_plan_partial(self):
        model = fresh_model()
        projector = ConstraintProjector(
            model, 8, layer_plan=[Multiplier(ALPHA_1), CONVENTIONAL])
        assert projector.num_constrained_layers == 1
        w_out_before = model.layers[1].params["W"].copy()
        projector.project()
        np.testing.assert_array_equal(
            model.layers[1].params["W"], w_out_before)

    def test_plan_length_check(self):
        model = fresh_model()
        with pytest.raises(ValueError):
            ConstraintProjector(model, 8, layer_plan=[Multiplier(ALPHA_1)])

    def test_needs_set_or_plan(self):
        with pytest.raises(ValueError):
            ConstraintProjector(fresh_model(), 8)

    def test_nearest_mode(self):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_2, mode="nearest")
        projector.project()
        assert projector.violations() == 0


class TestConstrainedTraining:
    def test_training_maintains_constraints(self, small_data):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_1)
        trainer = constrained_trainer(
            model, SGD(model, 0.05), projector, batch_size=32)
        trainer.fit(small_data.flat_train, small_data.y_train_onehot,
                    small_data.flat_test, small_data.y_test, max_epochs=2)
        assert projector.violations() == 0

    def test_constrained_training_still_learns(self, small_data):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_2)
        trainer = constrained_trainer(
            model, SGD(model, 0.1), projector, batch_size=32)
        history = trainer.fit(
            small_data.flat_train, small_data.y_train_onehot,
            small_data.flat_test, small_data.y_test, max_epochs=8)
        assert history.best_accuracy > 0.5  # far above 10% chance


#: a config whose first rung misses J at quality 1.0 (so it escalates)
LADDER_CONFIG = dict(app="tich", seed=1, designs=("conventional", "ladder"),
                     stages=("train", "quantize", "constrain", "evaluate"),
                     budget=Budget("tiny", n_train=250, n_test=120,
                                   max_epochs=3, retrain_epochs=2))


@pytest.fixture(scope="module")
def run_ladder(tmp_path_factory):
    """Run a ladder config; train and quantize are cached across runs."""
    cache_dir = str(tmp_path_factory.mktemp("ladder-cache"))

    def run(**overrides):
        return Pipeline(PipelineConfig(
            **{**LADDER_CONFIG, "cache_dir": cache_dir, **overrides})).run()
    return run


class TestDesignMethodology:
    @pytest.fixture(scope="class")
    def easy(self, run_ladder):
        return run_ladder(quality=0.5, ladder=(1, 2, 4, 8))

    def test_runs_and_accepts(self, easy):
        outcome = easy.constrain.outcome_for("ladder")
        assert outcome.ladder_accuracies
        assert outcome.chosen_alphabets in (1, 2, 4, 8)
        assert outcome.ladder_accuracies[-1] >= \
            easy.quantize.baseline_accuracy * 0.5

    def test_easy_quality_stops_at_one_alphabet(self, easy):
        outcome = easy.constrain.outcome_for("ladder")
        assert outcome.chosen_alphabets == 1
        assert len(outcome.ladder_accuracies) == 1

    def test_impossible_quality_escalates(self, run_ladder):
        # quality 1.0 forces escalation unless retraining is perfect
        report = run_ladder(quality=1.0, ladder=(1, 8))
        outcome = report.constrain.outcome_for("ladder")
        assert len(outcome.ladder_accuracies) == 2
        assert outcome.ladder_accuracies[0] < \
            report.quantize.baseline_accuracy
        assert outcome.chosen_alphabets == 8

    def test_quality_met_records_the_bound(self, run_ladder):
        # the recorded repro: a one-rung ladder misses K >= J * Q and is
        # still the chosen design, now marked as missing the bound
        report = run_ladder(quality=1.0, ladder=(1,))
        missed = report.constrain.outcome_for("ladder")
        assert missed.chosen_alphabets == 1
        assert missed.ladder_accuracies[0] < \
            report.quantize.baseline_accuracy
        assert missed.quality_met is False
        escalated = run_ladder(quality=1.0, ladder=(1, 8))
        assert escalated.constrain.outcome_for("ladder").quality_met is True

    def test_quality_met_only_for_ladders(self, run_ladder):
        report = run_ladder(designs=("conventional", "asm2"))
        assert report.constrain.outcome_for("asm2").quality_met is None

    def test_quality_met_payload_round_trip(self, easy):
        from repro.pipeline.stages import result_from_payload
        from repro.utils.serialization import to_jsonable
        result = easy.constrain
        assert result_from_payload(
            "constrain", to_jsonable(result)) == result
        # a cache entry written before the field existed reads as None
        payload = to_jsonable(result)
        for outcome in payload["outcomes"]:
            del outcome["quality_met"]
        assert result_from_payload("constrain", payload).outcome_for(
            "ladder").quality_met is None

    def test_invalid_quality(self):
        with pytest.raises(PipelineConfigError):
            PipelineConfig(**LADDER_CONFIG, quality=0.0)
        with pytest.raises(PipelineConfigError):
            PipelineConfig(**LADDER_CONFIG, quality=1.2)

    def test_empty_ladder(self):
        with pytest.raises(PipelineConfigError):
            PipelineConfig(**LADDER_CONFIG, ladder=())

    def test_accuracy_loss_property(self, easy):
        row = easy.evaluate.row_for("ladder")
        assert row.accuracy == \
            easy.constrain.outcome_for("ladder").ladder_accuracies[-1]
        assert row.loss == pytest.approx(
            easy.quantize.baseline_accuracy - row.accuracy)


class TestMixedPlans:
    def test_build_mixed_plan_shapes(self):
        model = mlp([1024, 64, 32, 10], seed=0)
        plan = build_mixed_plan(model, [ALPHA_2, ALPHA_4])
        assert plan == [ALPHA_1, ALPHA_2, ALPHA_4]

    def test_plan_too_long(self):
        model = mlp([8, 4, 2], seed=0)
        with pytest.raises(ValueError):
            build_mixed_plan(model, [ALPHA_2, ALPHA_4, ALPHA_4])

    @pytest.fixture(scope="class")
    def energy(self):
        """Per-inference energy of the all-{1}, §VI.E mixed and
        conventional deployments of the 1024-100-10 MLP."""
        return Pipeline(PipelineConfig(
            app="mnist_mlp", designs=("conventional", "asm1", "mixed"),
            stages=("energy",))).run().energy

    def test_evaluate_plan_energy_ordering(self, energy):
        """mixed energy sits between all-{1} and conventional."""
        assert energy.row_for("asm1").energy_nj < \
            energy.row_for("mixed").energy_nj < \
            energy.row_for("conventional").energy_nj

    def test_mixed_energy_overhead_small(self, energy):
        """§VI.E: upgrading the small output layer costs <5% energy."""
        assert energy.row_for("mixed").energy_nj / \
            energy.row_for("asm1").energy_nj < 1.05

    def test_normalized_energy_helper(self, energy):
        man = energy.row_for("asm1")
        assert man.normalized == pytest.approx(
            man.energy_nj / energy.row_for("conventional").energy_nj)
