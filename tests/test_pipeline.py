"""Tests for the declarative pipeline: config round-trips, stage
execution, caching/resume bit-identity, legacy-driver equivalence and
the unified CLI."""

import json
import os
import shutil

import pytest

from repro.asm.multiplier import Multiplier
from repro.pipeline import (
    Budget,
    Pipeline,
    PipelineConfig,
    PipelineConfigError,
    StageError,
    run_pipeline,
)
from repro.pipeline.report import format_report

TINY = {"name": "tiny", "n_train": 250, "n_test": 120,
        "max_epochs": 3, "retrain_epochs": 2}
TINY_BUDGET = Budget("tiny", n_train=250, n_test=120, max_epochs=3,
                     retrain_epochs=2)


def tiny_config(**overrides) -> PipelineConfig:
    base = dict(app="face", designs=("conventional", "asm1"),
                stages=("train", "quantize", "constrain", "evaluate",
                        "energy"),
                budget=TINY, seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


class TestConfigRoundTrips:
    def test_dict_round_trip(self):
        config = tiny_config()
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = tiny_config(bits=8, export_design="asm1")
        assert PipelineConfig.from_json(config.to_json()) == config

    def test_file_round_trip(self, tmp_path):
        config = tiny_config()
        path = config.save(str(tmp_path / "cfg.json"))
        assert PipelineConfig.load(path) == config

    def test_toml_load(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # noqa: F841 - 3.11+
        path = tmp_path / "cfg.toml"
        path.write_text('app = "face"\ndesigns = ["asm1"]\n'
                        'stages = ["energy"]\nbudget = "quick"\n')
        config = PipelineConfig.load(str(path))
        assert config.app == "face"
        assert config.designs == ("asm1",)

    def test_budget_tier_and_inline_table(self):
        assert tiny_config(budget="full").tier().name == "full"
        assert tiny_config(budget=TINY).tier() == TINY_BUDGET
        assert tiny_config(budget=TINY_BUDGET).tier() is TINY_BUDGET

    def test_lists_coerced_to_tuples(self):
        config = PipelineConfig.from_dict(
            {"app": "face", "designs": ["asm1"], "stages": ["energy"]})
        assert config.designs == ("asm1",)
        assert config.stages == ("energy",)

    def test_word_bits_default_and_override(self):
        assert tiny_config().word_bits() == 12   # face Table IV width
        assert tiny_config(bits=8).word_bits() == 8


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(PipelineConfigError, match="frobnicate"):
            PipelineConfig.from_dict({"app": "face", "frobnicate": 1})

    @pytest.mark.parametrize("key", ["sim_backend", "train_backend"])
    def test_v1_backend_keys_rejected_typed(self, key, tmp_path):
        """1.x files naming the per-family backend keys (now the single
        ``backend``) fail with the typed unknown-key errors."""
        from repro.explore import JournalError, SearchSpace, SearchSpaceError
        from repro.explore.journal import load_space

        with pytest.raises(PipelineConfigError, match=key):
            PipelineConfig.from_dict({"app": "face", key: "auto"})
        space = {"app": "face", "backend": "auto", key: "auto"}
        with pytest.raises(SearchSpaceError, match="backend"):
            SearchSpace.from_dict({"app": "face", "backend": "auto"})
        (tmp_path / "space.json").write_text(json.dumps(
            {"format": 1, "space": space, "space_digest": "0" * 64}))
        with pytest.raises(JournalError, match=key):
            load_space(str(tmp_path))

    def test_unknown_budget_key_rejected(self):
        with pytest.raises(PipelineConfigError, match="n_epochs"):
            tiny_config(budget={**TINY, "n_epochs": 3})

    def test_unknown_app(self):
        with pytest.raises(PipelineConfigError, match="unknown app"):
            tiny_config(app="imagenet")

    def test_unknown_design(self):
        with pytest.raises(PipelineConfigError, match="asm3"):
            tiny_config(designs=("asm3",))

    def test_unknown_stage(self):
        with pytest.raises(PipelineConfigError, match="deploy"):
            tiny_config(stages=("train", "deploy"))

    def test_unknown_budget_tier(self):
        with pytest.raises(PipelineConfigError, match="budget tier"):
            tiny_config(budget="huge")

    def test_bad_quality(self):
        with pytest.raises(PipelineConfigError, match="quality"):
            tiny_config(quality=1.5)

    def test_export_design_must_be_configured(self):
        with pytest.raises(PipelineConfigError, match="export_design"):
            tiny_config(export_design="asm4")

    def test_conventional_only_has_no_export(self):
        config = tiny_config(designs=("conventional",))
        with pytest.raises(PipelineConfigError, match="exportable"):
            config.resolved_export_design()

    def test_export_stage_with_only_conventional_rejected_early(self):
        # must fail at config construction, not after a training run
        with pytest.raises(PipelineConfigError, match="exportable"):
            tiny_config(designs=("conventional",),
                        stages=("train", "constrain", "export"))

    def test_export_stage_override_rejected_before_running(self):
        # the runtime --stages override must hit the same guard in plan()
        config = tiny_config(designs=("conventional",),
                             stages=("train", "quantize"))
        with pytest.raises(PipelineConfigError, match="exportable"):
            Pipeline(config).plan(("export",))

    def test_save_rejects_non_json_extension(self, tmp_path):
        with pytest.raises(PipelineConfigError, match="json"):
            tiny_config().save(str(tmp_path / "cfg.toml"))

    def test_digest_ignores_cache_dir(self):
        a = tiny_config(cache_dir=None)
        b = tiny_config(cache_dir="/tmp/x")
        assert a.digest() == b.digest()
        assert a.digest() != tiny_config(seed=1).digest()


class TestPipelineRun:
    @pytest.fixture(scope="class")
    def report(self):
        return Pipeline(tiny_config()).run()

    def test_stage_order_and_results(self, report):
        assert report.stages_run == ("train", "quantize", "constrain",
                                     "evaluate", "energy")
        assert report.cached_stages == ()
        assert report.train.epochs >= 1
        assert 0.0 <= report.quantize.baseline_accuracy <= 1.0

    def test_conventional_row_is_baseline(self, report):
        row = report.evaluate.row_for("conventional")
        assert row.accuracy == report.quantize.baseline_accuracy
        assert row.loss == 0.0

    def test_asm_row_loss_consistent(self, report):
        row = report.evaluate.row_for("asm1")
        assert row.loss == pytest.approx(
            report.quantize.baseline_accuracy - row.accuracy)

    def test_energy_normalization(self, report):
        assert report.energy.row_for("conventional").normalized == 1.0
        assert report.energy.row_for("asm1").normalized < 1.0

    def test_report_serializes(self, report, tmp_path):
        path = report.save(str(tmp_path / "report.json"))
        data = json.loads(open(path).read())
        assert data["stages"]["evaluate"]["rows"][0]["design"] == \
            "conventional"
        assert format_report(report)  # renders without error

    def test_prerequisites_auto_included(self):
        # asking only for 'evaluate' pulls in train/quantize/constrain
        plan = Pipeline(tiny_config()).plan(("evaluate",))
        assert plan == ("train", "quantize", "constrain", "evaluate")

    def test_missing_state_raises_stage_error(self):
        from repro.pipeline.stages import PipelineContext, stage_quantize

        ctx = PipelineContext(tiny_config())
        with pytest.raises(StageError, match="train"):
            stage_quantize(ctx)  # no train state stashed

    def test_unresolved_ladder_raises_stage_error(self):
        from repro.pipeline.stages import PipelineContext

        ctx = PipelineContext(tiny_config(designs=("ladder",)))
        with pytest.raises(StageError, match="constrain"):
            ctx.design_set("ladder")


class TestCachingResume:
    def test_resume_is_bit_identical(self, tmp_path):
        config = tiny_config(cache_dir=str(tmp_path / "cache"))
        cold = Pipeline(config).run()
        warm = Pipeline(config).run()
        assert warm.cached_stages == warm.stages_run
        cold_dict, warm_dict = cold.to_dict(), warm.to_dict()
        cold_dict.pop("cached_stages")
        warm_dict.pop("cached_stages")
        assert cold_dict == warm_dict

    def test_fresh_run_matches_cached_run(self, tmp_path):
        cached = Pipeline(
            tiny_config(cache_dir=str(tmp_path / "a"))).run()
        fresh = Pipeline(tiny_config()).run()
        cached_dict, fresh_dict = cached.to_dict(), fresh.to_dict()
        # cache_dir is the one config field allowed to differ (and is
        # excluded from the digest for exactly that reason)
        assert cached_dict["config_digest"] == fresh_dict["config_digest"]
        assert cached_dict["stages"] == fresh_dict["stages"]

    def test_partial_resume_after_stage_list_extension(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = Pipeline(tiny_config(
            stages=("train", "quantize"), cache_dir=cache)).run()
        assert first.cached_stages == ()
        # same config digest except stages -> different digest, so the
        # cache key changes; run the full config in its own cache and
        # verify the train result is reused on the second pass
        config = tiny_config(cache_dir=cache)
        second = Pipeline(config).run()
        third = Pipeline(config).run()
        assert "train" in third.cached_stages
        assert third.to_dict()["stages"] == second.to_dict()["stages"]

    def test_no_resume_flag_recomputes(self, tmp_path):
        config = tiny_config(cache_dir=str(tmp_path / "cache"))
        Pipeline(config).run()
        report = Pipeline(config).run(resume=False)
        assert report.cached_stages == ()

    def test_stage_plan_is_part_of_cache_key(self, tmp_path):
        """A run with a restricted --stages plan must not poison the
        cache for the full plan (evaluate's losses depend on whether
        quantize ran)."""
        config = tiny_config(designs=("asm1",),
                             cache_dir=str(tmp_path / "cache"))
        partial = Pipeline(config).run(stages=("evaluate",))
        assert partial.evaluate.row_for("asm1").loss is None
        full = Pipeline(config).run()   # default plan includes quantize
        assert "evaluate" not in full.cached_stages
        assert full.evaluate.row_for("asm1").loss is not None


def _count_syntheses(monkeypatch) -> list:
    """Count calls to the dataset generator the pipeline context uses."""
    from repro.pipeline import stages

    calls = []
    original = stages.load_dataset

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(stages, "load_dataset", counting)
    return calls


class TestDatasetCache:
    """The synthesised dataset is a content-keyed stage-cache entry."""

    @pytest.mark.parametrize("app", ["mnist_mlp", "mnist_cnn", "face",
                                     "svhn", "tich"])
    def test_round_trip_is_bit_exact(self, app, tmp_path, monkeypatch):
        from repro.datasets.registry import load_dataset
        from repro.pipeline.stages import PipelineContext

        calls = _count_syntheses(monkeypatch)
        config = tiny_config(app=app, budget={**TINY, "n_train": 40,
                                              "n_test": 12})
        path = Pipeline(config, cache_dir=str(tmp_path)).dataset_cache_path()
        writer = PipelineContext(config)
        writer.dataset_path = path
        writer.dataset                                   # miss: writes
        reader = PipelineContext(config)
        reader.dataset_path = path
        loaded = reader.dataset                          # hit: loads
        assert len(calls) == 1
        fresh = load_dataset(app, n_train=40, n_test=12, seed=0)
        for field in ("x_train", "y_train", "x_test", "y_test"):
            a, b = getattr(loaded, field), getattr(fresh, field)
            assert a.tobytes() == b.tobytes(), field
            assert a.dtype == b.dtype, field
            assert a.shape == b.shape, field
        assert loaded.name == fresh.name
        assert loaded.n_classes == fresh.n_classes

    def test_sweep_synthesises_each_dataset_once(self, tmp_path,
                                                 monkeypatch):
        from repro.explore import SearchSpace, run_exploration

        calls = _count_syntheses(monkeypatch)
        space = SearchSpace(app="face", designs=("conventional", "asm1",
                                                 "asm2"),
                            budgets=(TINY,), seeds=(0, 1))
        journal = str(tmp_path / "journal")
        run_exploration(space, journal, jobs=1)
        assert len(calls) == 2
        entries = [name for name in os.listdir(
            os.path.join(journal, "cache")) if name.startswith("dataset-")]
        assert len(entries) == 2

    def test_no_cache_dir_writes_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        calls = _count_syntheses(monkeypatch)
        config = tiny_config(stages=("train", "quantize"))
        Pipeline(config).run()
        Pipeline(config).run()
        assert len(calls) == 2
        assert os.listdir(tmp_path) == []

    def test_explicit_cache_dir_override_is_used(self, tmp_path):
        config = tiny_config(stages=("train",))
        assert config.cache_dir is None
        Pipeline(config, cache_dir=str(tmp_path)).run()
        assert any(name.startswith("dataset-")
                   for name in os.listdir(tmp_path))

    def test_passed_context_uses_pipeline_cache_root(self, tmp_path,
                                                     monkeypatch):
        """The sensitivity strategy hands Pipeline.run its own context."""
        from repro.pipeline.stages import PipelineContext

        calls = _count_syntheses(monkeypatch)
        config = tiny_config(stages=("train",), cache_dir=str(tmp_path))
        for _ in range(2):
            ctx = PipelineContext(config)
            Pipeline(config).run(context=ctx)
            ctx.dataset              # probed after a (cached) train stage
        assert len(calls) == 1


class TestCorruptCacheRecovery:
    """An unreadable cache entry is a miss: recompute and overwrite."""

    STAGES = ("train", "quantize")

    def _cold_then(self, tmp_path, corrupt):
        config = tiny_config(stages=self.STAGES,
                             cache_dir=str(tmp_path / "cache"))
        pipeline = Pipeline(config)
        cold = pipeline.run()
        corrupt(pipeline.stage_cache_dir("train", self.STAGES))
        recovered = Pipeline(config).run()
        warm = Pipeline(config).run()
        assert recovered.to_dict()["stages"] == cold.to_dict()["stages"]
        assert warm.cached_stages == warm.stages_run
        return recovered

    @staticmethod
    def _rewrite_envelope(stage_dir, change):
        path = os.path.join(stage_dir, "train.json")
        with open(path) as handle:
            envelope = json.load(handle)
        with open(path, "w") as handle:
            json.dump(change(envelope), handle)

    @staticmethod
    def _truncate(path):
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])

    def test_non_object_envelope(self, tmp_path):
        recovered = self._cold_then(tmp_path, lambda d: self._rewrite_envelope(
            d, lambda envelope: []))
        assert "train" not in recovered.cached_stages

    def test_envelope_with_unbuildable_result(self, tmp_path):
        recovered = self._cold_then(tmp_path, lambda d: self._rewrite_envelope(
            d, lambda envelope: {**envelope, "result": {}}))
        assert "train" not in recovered.cached_stages

    def test_truncated_weight_state(self, tmp_path):
        recovered = self._cold_then(tmp_path, lambda d: self._truncate(
            os.path.join(d, "train-state.npz")))
        assert "train" not in recovered.cached_stages

    def test_truncated_dataset_entry(self, tmp_path, monkeypatch):
        calls = _count_syntheses(monkeypatch)

        def corrupt(_train_dir):
            (entry,) = [name for name in os.listdir(tmp_path / "cache")
                        if name.startswith("dataset-")]
            self._truncate(tmp_path / "cache" / entry / "dataset.npz")
            # drop the cached stages too, so the dataset is needed again
            for name in os.listdir(tmp_path / "cache"):
                if not name.startswith("dataset-"):
                    shutil.rmtree(tmp_path / "cache" / name)

        self._cold_then(tmp_path, corrupt)
        assert len(calls) == 2             # cold run + the recovery


class TestLegacyEquivalence:
    """The acceptance criterion: pipeline numbers == legacy driver
    numbers, bit for bit."""

    def test_export_matches_legacy_inline_sequence(self, tmp_path,
                                                   monkeypatch):
        """Pipeline export numbers == the *pre-pipeline* run_export
        sequence, re-implemented inline (run_export itself is now a
        pipeline wrapper, so comparing against it would be circular)."""
        import numpy as np
        from repro.asm.alphabet import standard_set
        from repro.asm.constraints import WeightConstrainer
        from repro.datasets.registry import (
            BENCHMARKS, build_model, load_dataset)
        from repro.nn.optim import SGD
        from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
        from repro.nn.trainer import Trainer
        from repro.pipeline.config import TRAIN_SETTINGS
        from repro.serving.artifact import save_artifact
        from repro.serving.registry import ModelRegistry
        from repro.training.constrained import (
            ConstraintProjector, constrained_trainer)

        monkeypatch.chdir(tmp_path)
        app, num_alphabets, seed = "mnist_mlp", 2, 0
        spec_row = BENCHMARKS[app]
        bits = spec_row.bits
        settings = TRAIN_SETTINGS[app]
        alphabet_set = standard_set(num_alphabets)
        dataset = load_dataset(app, n_train=TINY["n_train"],
                               n_test=TINY["n_test"], seed=seed)
        model = build_model(app, seed=seed + 1)
        x_train, x_test = dataset.flat_train, dataset.flat_test
        Trainer(model, SGD(model, settings.learning_rate),
                batch_size=settings.batch_size,
                patience=settings.patience).fit(
            x_train, dataset.y_train_onehot, x_test, dataset.y_test,
            max_epochs=TINY["max_epochs"])
        projector = ConstraintProjector(model, bits, alphabet_set)
        constrained_trainer(
            model, SGD(model, settings.learning_rate
                       * settings.retrain_lr_scale), projector,
            batch_size=settings.batch_size,
            patience=settings.patience).fit(
            x_train, dataset.y_train_onehot, x_test, dataset.y_test,
            max_epochs=TINY["retrain_epochs"])
        constrainer = WeightConstrainer(bits, alphabet_set)
        quantized = QuantizedNetwork.from_float(
            model, QuantizationSpec(bits, Multiplier(alphabet_set),
                                    constrainer=constrainer))
        legacy_path = os.path.join("legacy-artifacts",
                                   f"{app}-asm{num_alphabets}")
        save_artifact(quantized, legacy_path)
        compiled = ModelRegistry().register(legacy_path, name=app).model
        assert np.array_equal(quantized.forward(x_test),
                              compiled.forward(x_test))
        legacy_quantized_accuracy = quantized.accuracy(
            x_test, dataset.y_test)
        legacy_compiled_accuracy = compiled.accuracy(
            x_test, dataset.y_test)
        legacy_energy = compiled.energy_per_inference_nj()

        config = PipelineConfig.load(os.path.join(
            os.path.dirname(__file__), "..", "examples", "configs",
            "digits_quick.json")).with_overrides(
                budget=TINY, export_dir="pipeline-artifacts")
        report = run_pipeline(config)
        assert report.evaluate.row_for("asm2").accuracy == \
            legacy_quantized_accuracy
        assert report.serve_check.compiled_accuracy == \
            legacy_compiled_accuracy
        assert report.serve_check.energy_nj_per_inference == \
            legacy_energy
        assert report.serve_check.num_params == compiled.num_params
        assert report.serve_check.bit_identical
        assert report.export.spec_label == quantized.spec.label

    def test_accuracy_grid_matches_inline_methodology(self):
        """Pipeline accuracy == the pre-pipeline driver sequence
        (train, baseline, restore+retrain per count, ASM accuracy)."""
        import numpy as np  # noqa: F401 - parity with legacy imports
        from repro.asm.alphabet import standard_set
        from repro.datasets.registry import (
            BENCHMARKS, build_model, load_dataset, training_arrays)
        from repro.experiments import EXPERIMENTS
        from repro.nn.optim import SGD
        from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
        from repro.nn.trainer import Trainer
        from repro.pipeline.config import TRAIN_SETTINGS
        from repro.training.constrained import (
            ConstraintProjector, constrained_trainer)

        app, count, seed = "face", 1, 0
        spec = BENCHMARKS[app]
        settings = TRAIN_SETTINGS[app]
        dataset = load_dataset(app, n_train=TINY["n_train"],
                               n_test=TINY["n_test"], seed=seed)
        model = build_model(app, seed=seed + 1)
        x_train, x_test = training_arrays(dataset, spec)
        Trainer(model, SGD(model, settings.learning_rate),
                batch_size=settings.batch_size,
                patience=settings.patience).fit(
            x_train, dataset.y_train_onehot, x_test, dataset.y_test,
            max_epochs=TINY["max_epochs"])
        baseline = QuantizedNetwork.from_float(
            model, QuantizationSpec(spec.bits)).accuracy(
                x_test, dataset.y_test)
        restore = model.state()
        alphabet_set = standard_set(count)
        model.load_state(restore)
        projector = ConstraintProjector(model, spec.bits, alphabet_set)
        constrained_trainer(
            model, SGD(model, settings.learning_rate
                       * settings.retrain_lr_scale), projector,
            batch_size=settings.batch_size,
            patience=settings.patience).fit(
            x_train, dataset.y_train_onehot, x_test, dataset.y_test,
            max_epochs=TINY["retrain_epochs"])
        constrained_accuracy = QuantizedNetwork.from_float(
            model, QuantizationSpec.constrained(
                spec.bits, Multiplier(alphabet_set))).accuracy(
                    x_test, dataset.y_test)

        grid = EXPERIMENTS["table2"].configs[0]
        assert grid.app == app
        report = run_pipeline(grid.with_overrides(
            designs=("conventional", f"asm{count}"), budget=TINY_BUDGET,
            seed=seed))
        assert report.quantize.baseline_accuracy == baseline
        assert report.evaluate.row_for(f"asm{count}").accuracy == \
            constrained_accuracy

    def test_ladder_matches_inline_algorithm2(self, tich_ladder_report):
        """Ladder outcome == Algorithm 2's escalation loop inline (train,
        baseline J, then restore + retrain + measure K per rung until
        K >= J * Q) on a config that escalates."""
        from repro.asm.alphabet import standard_set
        from repro.datasets.registry import (
            BENCHMARKS, build_model, load_dataset, training_arrays)
        from repro.nn.optim import SGD
        from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
        from repro.nn.trainer import Trainer
        from repro.pipeline.config import TRAIN_SETTINGS
        from repro.training.constrained import (
            ConstraintProjector, constrained_trainer)

        app, seed, quality = TICH_LADDER["app"], TICH_LADDER["seed"], \
            TICH_LADDER["quality"]
        spec = BENCHMARKS[app]
        settings = TRAIN_SETTINGS[app]
        dataset = load_dataset(app, n_train=TINY["n_train"],
                               n_test=TINY["n_test"], seed=seed)
        model = build_model(app, seed=seed + 1)
        x_train, x_test = training_arrays(dataset, spec)
        Trainer(model, SGD(model, settings.learning_rate),
                batch_size=settings.batch_size,
                patience=settings.patience).fit(
            x_train, dataset.y_train_onehot, x_test, dataset.y_test,
            max_epochs=TINY["max_epochs"])
        baseline = QuantizedNetwork.from_float(
            model, QuantizationSpec(spec.bits)).accuracy(
                x_test, dataset.y_test)
        restore = model.state()
        accuracies = []
        for count in TICH_LADDER["ladder"]:
            alphabet_set = standard_set(count)
            model.load_state(restore)
            projector = ConstraintProjector(model, spec.bits, alphabet_set)
            history = constrained_trainer(
                model, SGD(model, settings.learning_rate
                           * settings.retrain_lr_scale), projector,
                batch_size=settings.batch_size,
                patience=settings.patience).fit(
                x_train, dataset.y_train_onehot, x_test, dataset.y_test,
                max_epochs=TINY["retrain_epochs"])
            accuracies.append(QuantizedNetwork.from_float(
                model, QuantizationSpec.constrained(
                    spec.bits, Multiplier(alphabet_set))).accuracy(
                        x_test, dataset.y_test))
            if accuracies[-1] >= baseline * quality:
                break

        report = tich_ladder_report
        outcome = report.constrain.outcome_for("ladder")
        assert report.quantize.baseline_accuracy == baseline
        assert outcome.ladder_accuracies == tuple(accuracies)
        assert outcome.chosen_alphabets == count
        assert outcome.epochs == history.epochs_run
        assert report.evaluate.row_for("ladder").accuracy == accuracies[-1]


#: a ladder config that escalates at the TINY budget (rung 1 misses J)
TICH_LADDER = dict(app="tich", seed=1, quality=1.0, ladder=(1, 2, 4, 8))


@pytest.fixture(scope="module")
def tich_ladder_report():
    return Pipeline(tiny_config(designs=("conventional", "ladder"),
                                **TICH_LADDER)).run()


class TestLadderDesign:
    def test_ladder_escalates(self, tich_ladder_report):
        report = tich_ladder_report
        outcome = report.constrain.outcome_for("ladder")
        assert len(outcome.ladder_accuracies) == 2
        assert outcome.ladder_accuracies[0] < \
            report.quantize.baseline_accuracy
        assert outcome.chosen_alphabets == 2

    def test_ladder_resolves_and_evaluates(self):
        config = tiny_config(designs=("conventional", "ladder"),
                             quality=0.5, ladder=(1, 2))
        report = Pipeline(config).run()
        outcome = report.constrain.outcome_for("ladder")
        assert outcome.chosen_alphabets in (1, 2)
        assert len(outcome.ladder_accuracies) >= 1
        row = report.evaluate.row_for("ladder")
        assert 0.0 <= row.accuracy <= 1.0
        energy = report.energy.row_for("ladder")
        assert energy.normalized < 1.0


class TestMixedDesign:
    def test_mixed_plan_runs_for_mnist(self):
        config = PipelineConfig(
            app="mnist_mlp", designs=("conventional", "mixed"),
            stages=("train", "quantize", "constrain", "evaluate",
                    "energy"),
            budget=TINY, seed=0)
        report = Pipeline(config).run()
        row = report.evaluate.row_for("mixed")
        assert row.label.startswith("mixed(")
        energy = report.energy.row_for("mixed")
        assert 0.0 < energy.normalized < 1.0

    def test_mixed_rejected_for_apps_without_plan(self):
        # must fail at config time, not after a full training run
        with pytest.raises(PipelineConfigError, match="mixed"):
            tiny_config(designs=("mixed",))  # face has no §VI.E plan

    def test_mixed_export_label_is_not_conventional(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = PipelineConfig(
            app="mnist_mlp", designs=("mixed",),
            stages=("train", "constrain", "export", "serve-check"),
            budget=TINY, seed=0)
        report = Pipeline(config).run()
        assert report.export.spec_label == \
            "8b-mixed({1}|{1,3,5,7})-constrained"
        assert report.serve_check.bit_identical
        # the reloaded bundle reports the same honest label
        from repro.serving.compiled import CompiledModel
        assert CompiledModel.load(report.export.path).spec_label == \
            report.export.spec_label


class TestCLI:
    def test_list_exits_zero(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mnist_mlp" in out and "serve-check" in out

    def test_run_config_writes_report(self, tmp_path, monkeypatch,
                                      capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        config = tiny_config(stages=("energy",))
        path = config.save("cfg.json")
        assert main(["run", path, "--json", "out.json", "--quiet"]) == 0
        assert os.path.exists("out.json")
        data = json.loads(open("out.json").read())
        assert data["stages_run"] == ["energy"]

    def test_run_stage_override(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        path = tiny_config().save("cfg.json")
        assert main(["run", path, "--stages", "energy", "--quiet"]) == 0
        assert "Stage: energy" in capsys.readouterr().out

    def test_run_bad_config_is_error_exit(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"app": "face", "bogus_key": 1}')
        assert main(["run", str(bad)]) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_experiment_subcommand(self, capsys):
        from repro.cli import main
        assert main(["experiment", "table5"]) == 0
        assert "45nm" in capsys.readouterr().out

    def test_package_exports(self):
        import repro
        assert repro.__version__ == "2.0.0"
        assert repro.PipelineConfig is PipelineConfig
        assert repro.run_pipeline is run_pipeline
        from repro.kernels import get_backend
        assert repro.get_backend is get_backend
        from repro.explore import SearchSpace, run_exploration
        assert repro.SearchSpace is SearchSpace
        assert repro.run_exploration is run_exploration
        with pytest.raises(AttributeError):
            repro.nonexistent_name
