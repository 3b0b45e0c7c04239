"""Tests for the design-space exploration subsystem: Pareto dominance
edge cases, search-space round-trips and enumeration, custom per-layer
design tokens, cross-config stage-cache sharing, serial-vs-parallel
bit-identity of journals and frontiers, resume semantics, frontier
export into the serving registry, and the ``repro explore`` CLI."""

import json
import os

import pytest

from repro.explore import (
    ExplorationJournal,
    JournalError,
    SearchSpace,
    SearchSpaceError,
    dominates,
    format_exploration_report,
    pareto_frontier,
    register_frontier,
    resolve_objectives,
    run_exploration,
)
from repro.explore.report import ExplorationReport
from repro.explore.strategies import random_candidates
from repro.pipeline import (
    Pipeline,
    PipelineConfig,
    PipelineConfigError,
    StageError,
    parse_design,
)
from repro.pipeline.pipeline import list_cached_runs

TINY = {"name": "tiny", "n_train": 250, "n_test": 120,
        "max_epochs": 3, "retrain_epochs": 2}


def tiny_space(**overrides) -> SearchSpace:
    base = dict(app="face", designs=("conventional", "asm1"),
                budgets=(TINY,), seeds=(0,))
    base.update(overrides)
    return SearchSpace(**base)


# ----------------------------------------------------------------------
# Pareto utilities
# ----------------------------------------------------------------------
class TestPareto:
    MIN_E = resolve_objectives(("energy_nj",))
    ACC_E = resolve_objectives(("accuracy", "energy_nj"))

    def test_basic_dominance(self):
        a = {"accuracy": 0.9, "energy_nj": 10.0}
        b = {"accuracy": 0.8, "energy_nj": 20.0}
        assert dominates(a, b, self.ACC_E)
        assert not dominates(b, a, self.ACC_E)

    def test_trade_off_is_incomparable(self):
        a = {"accuracy": 0.9, "energy_nj": 20.0}
        b = {"accuracy": 0.8, "energy_nj": 10.0}
        assert not dominates(a, b, self.ACC_E)
        assert not dominates(b, a, self.ACC_E)

    def test_equal_points_do_not_dominate(self):
        a = {"accuracy": 0.9, "energy_nj": 10.0}
        assert not dominates(a, dict(a), self.ACC_E)

    def test_tie_on_one_axis_still_dominates(self):
        a = {"accuracy": 0.9, "energy_nj": 10.0}
        b = {"accuracy": 0.9, "energy_nj": 20.0}
        assert dominates(a, b, self.ACC_E)

    def test_frontier_trade_off_curve(self):
        points = [
            {"accuracy": 0.95, "energy_nj": 100.0},   # accuracy corner
            {"accuracy": 0.90, "energy_nj": 40.0},    # knee
            {"accuracy": 0.85, "energy_nj": 20.0},    # energy corner
            {"accuracy": 0.84, "energy_nj": 50.0},    # dominated by knee
        ]
        assert pareto_frontier(points, self.ACC_E) == (0, 1, 2)

    def test_duplicate_points_all_kept(self):
        points = [
            {"accuracy": 0.9, "energy_nj": 10.0},
            {"accuracy": 0.9, "energy_nj": 10.0},
            {"accuracy": 0.8, "energy_nj": 30.0},
        ]
        assert pareto_frontier(points, self.ACC_E) == (0, 1)

    def test_single_objective_keeps_all_ties(self):
        points = [{"energy_nj": 5.0}, {"energy_nj": 3.0},
                  {"energy_nj": 3.0}, {"energy_nj": 9.0}]
        assert pareto_frontier(points, self.MIN_E) == (1, 2)

    def test_single_point(self):
        assert pareto_frontier([{"energy_nj": 1.0}], self.MIN_E) == (0,)

    def test_empty_points(self):
        assert pareto_frontier([], self.MIN_E) == ()

    def test_no_objectives_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier([{"energy_nj": 1.0}], ())
        with pytest.raises(ValueError, match="at least one"):
            resolve_objectives(())

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="throughput"):
            resolve_objectives(("throughput",))


# ----------------------------------------------------------------------
# SearchSpace
# ----------------------------------------------------------------------
class TestSearchSpace:
    def test_dict_round_trip(self):
        space = tiny_space(seeds=(0, 1), qualities=(0.9,))
        assert SearchSpace.from_dict(space.to_dict()) == space

    def test_toml_load(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "space.toml"
        path.write_text(
            'app = "face"\ndesigns = ["conventional", "asm1"]\n'
            'bits = [0, 8]\nseeds = [0, 1]\n\n'
            '[[budgets]]\nname = "tiny"\nn_train = 100\nn_test = 50\n'
            'max_epochs = 2\nretrain_epochs = 1\n')
        space = SearchSpace.load(str(path))
        assert space.bits == (None, 8)      # 0 means Table IV default
        assert space.budgets[0].n_train == 100
        assert SearchSpace.from_dict(space.to_dict()) == space

    def test_json_load(self, tmp_path):
        space = tiny_space()
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space.to_dict()))
        assert SearchSpace.load(str(path)) == space

    def test_unknown_key_rejected(self):
        with pytest.raises(SearchSpaceError, match="frobnicate"):
            SearchSpace.from_dict({"app": "face", "frobnicate": 1})

    def test_validation_errors(self):
        with pytest.raises(SearchSpaceError, match="unknown app"):
            tiny_space(app="imagenet")
        with pytest.raises(SearchSpaceError, match="strategy"):
            tiny_space(strategy="anneal")
        with pytest.raises(SearchSpaceError, match="objective"):
            tiny_space(objectives=("throughput",))
        with pytest.raises(SearchSpaceError, match="must not be empty"):
            tiny_space(designs=())
        with pytest.raises(SearchSpaceError, match="duplicate"):
            tiny_space(designs=("asm1", "asm1"))
        with pytest.raises(SearchSpaceError, match="sensitivity count"):
            tiny_space(sensitivity_counts=(3,))
        with pytest.raises(SearchSpaceError, match="budget tier"):
            tiny_space(budgets=("huge",))
        with pytest.raises(SearchSpaceError, match="asm3"):
            tiny_space(designs=("asm3",))
        with pytest.raises(SearchSpaceError, match="mixed"):
            tiny_space(app="face", designs=("mixed",))  # no §VI.E plan

    def test_name_defaults_to_app(self):
        assert tiny_space().name == "face"
        assert tiny_space(name="sweep").name == "sweep"

    def test_digest_tracks_content(self):
        assert tiny_space().digest() == tiny_space().digest()
        assert tiny_space().digest() != tiny_space(seeds=(1,)).digest()

    def test_grid_canonicalises_irrelevant_axes(self):
        # conventional ignores mode+quality; asm ignores quality: the
        # 2 designs x 2 modes x 2 qualities cross collapses to 1 + 2
        space = tiny_space(designs=("conventional", "asm1"),
                           constraint_modes=("greedy", "nearest"),
                           qualities=(0.99, 0.9))
        grid = space.grid()
        assert len(grid) == 3
        digests = [config.digest() for config in grid]
        assert len(set(digests)) == len(digests)

    def test_grid_ladder_keeps_quality_axis(self):
        space = tiny_space(designs=("ladder",), qualities=(0.99, 0.9))
        assert len(space.grid()) == 2

    def test_max_candidates_truncates(self):
        space = tiny_space(seeds=(0, 1, 2), max_candidates=4)
        assert len(space.grid()) == 4

    def test_grid_carries_cache_dir(self):
        grid = tiny_space().grid(cache_dir="/tmp/c")
        assert all(config.cache_dir == "/tmp/c" for config in grid)

    def test_random_sampling_deterministic_subset(self):
        space = tiny_space(seeds=(0, 1, 2, 3), strategy="random", samples=3)
        first = random_candidates(space)
        second = random_candidates(space)
        assert first == second
        assert len(first) == 3
        grid_digests = {c.digest() for c in space.grid()}
        assert all(c.digest() in grid_digests for c in first)

    def test_random_sampling_caps_at_grid(self):
        space = tiny_space(strategy="random", samples=50)
        assert random_candidates(space) == space.grid()


# ----------------------------------------------------------------------
# custom per-layer design tokens
# ----------------------------------------------------------------------
class TestCustomPlanTokens:
    def test_parse_design_plan(self):
        assert parse_design("mixed:1-0") == (1, 0)
        assert parse_design("mixed:0-2-4") == (0, 2, 4)
        assert parse_design("mixed") == "mixed"

    def test_bad_counts_rejected(self):
        with pytest.raises(PipelineConfigError, match="no standard"):
            parse_design("mixed:3-1")
        with pytest.raises(PipelineConfigError, match="constrains no"):
            parse_design("mixed:0-0")
        with pytest.raises(PipelineConfigError, match="unknown design"):
            parse_design("mixed:")

    def test_pipeline_runs_custom_plan(self, tmp_path):
        config = PipelineConfig(
            app="face", designs=("conventional", "mixed:1-0"),
            stages=("train", "quantize", "constrain", "evaluate",
                    "energy"),
            budget=TINY, seed=0)
        report = Pipeline(config).run()
        row = report.evaluate.row_for("mixed:1-0")
        assert row.label == "mixed({1},exact)"
        assert report.constrain.outcome_for("mixed:1-0").epochs >= 0
        energy = report.energy.row_for("mixed:1-0")
        # layer 1 on the MAN datapath, layer 2 exact: cheaper than the
        # all-conventional engine
        conventional = report.energy.row_for("conventional")
        assert energy.energy_nj < conventional.energy_nj
        assert energy.area_um2 > 0 and energy.latency_us > 0

    def test_wrong_plan_length_is_stage_error(self):
        config = PipelineConfig(app="face", designs=("mixed:1-0-2",),
                                stages=("energy",), budget=TINY)
        with pytest.raises(StageError, match="3 layer counts"):
            Pipeline(config).run()


# ----------------------------------------------------------------------
# stage-cache sharing and run markers
# ----------------------------------------------------------------------
class TestSharedStageCache:
    def test_cross_config_train_sharing(self, tmp_path):
        cache = str(tmp_path / "cache")
        base = dict(app="face", stages=("train", "quantize", "constrain",
                                        "evaluate", "energy"),
                    budget=TINY, seed=0, cache_dir=cache)
        first = Pipeline(PipelineConfig(
            designs=("conventional",), **base)).run()
        assert first.cached_stages == ()
        # different design list, same app/bits/budget/seed: train and
        # quantize come from the first run's cache
        second = Pipeline(PipelineConfig(designs=("asm1",), **base)).run()
        assert "train" in second.cached_stages
        assert "quantize" in second.cached_stages
        assert "constrain" not in second.cached_stages
        # and the shared train state is bit-identical to a cold run
        cold = Pipeline(PipelineConfig(
            designs=("asm1",), **{**base, "cache_dir": None})).run()
        assert cold.to_dict()["stages"] == second.to_dict()["stages"]

    def test_run_markers_listed(self, tmp_path):
        cache = str(tmp_path / "cache")
        config = PipelineConfig(app="face", designs=("asm1",),
                                stages=("energy",), budget=TINY,
                                cache_dir=cache)
        Pipeline(config).run()
        runs = list_cached_runs(cache)
        assert len(runs) == 1
        assert runs[0]["app"] == "face"
        assert runs[0]["designs"] == ["asm1"]
        assert runs[0]["config_digest"] == config.digest()
        assert list_cached_runs(str(tmp_path / "missing")) == []

    def test_concurrent_writers_share_one_cache(self, tmp_path):
        """Two processes racing on the same config + cache_dir both
        succeed and leave a usable cache (atomic writes)."""
        import multiprocessing

        cache = str(tmp_path / "cache")
        config = PipelineConfig(app="face", designs=("asm1",),
                                stages=("train", "constrain", "evaluate"),
                                budget=TINY, cache_dir=cache)
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        with ctx.Pool(2) as pool:
            results = pool.map(_run_config_dict, [config.to_dict()] * 2)
        assert results[0] == results[1]
        warm = Pipeline(config).run()
        assert warm.cached_stages == warm.stages_run
        assert warm.to_dict()["stages"] == results[0]


# ----------------------------------------------------------------------
# exploration end-to-end
# ----------------------------------------------------------------------
class TestExploration:
    @pytest.fixture(scope="class")
    def journal_dir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("explore") / "journal")

    @pytest.fixture(scope="class")
    def report(self, journal_dir):
        return run_exploration(tiny_space(), journal_dir, jobs=1)

    def test_records_and_frontier(self, report):
        assert len(report.records) == 2
        assert [r["design"] for r in report.records] == \
            ["conventional", "asm1"]
        assert report.frontier                      # never empty
        # the energy optimum is always asm1; it must be on the frontier
        assert report.best("energy_nj")["design"] == "asm1"
        frontier_designs = {r["design"] for r in report.frontier_records()}
        assert "asm1" in frontier_designs

    def test_records_have_all_metric_axes(self, report):
        from repro.explore.executor import METRIC_KEYS
        for record in report.records:
            assert set(record["metrics"]) == set(METRIC_KEYS)
            assert record["config"]["cache_dir"] is None

    def test_report_round_trip_and_formatting(self, report, tmp_path):
        path = report.save(str(tmp_path / "report.json"))
        data = json.load(open(path))
        rebuilt = ExplorationReport.from_dict(data)
        assert rebuilt.frontier == report.frontier
        assert rebuilt.records == report.records
        text = format_exploration_report(report)
        assert "Pareto frontier" in text
        assert "asm1" in text

    def test_resume_hits_journal_completely(self, journal_dir, report):
        again = run_exploration(tiny_space(), journal_dir, jobs=1)
        assert again.journal_hits == len(report.records)
        assert again.evaluated == 0
        assert again.records == report.records
        assert again.frontier == report.frontier

    def test_journal_rejects_foreign_space(self, journal_dir):
        with pytest.raises(JournalError, match="different search space"):
            run_exploration(tiny_space(seeds=(7,)), journal_dir)

    def test_register_frontier_into_registry(self, report, tmp_path,
                                             journal_dir):
        from repro.serving.registry import ModelRegistry

        registry = ModelRegistry()
        # no explicit cache_dir: the report remembers the exploration's
        # stage cache, so only the export stage runs
        assert report.cache_dir == os.path.join(journal_dir, "cache")
        entries = register_frontier(
            report, registry=registry,
            export_dir=str(tmp_path / "artifacts"))
        assert [e.name for e in entries] == ["face-asm1"]
        entry = registry.entry("face-asm1")
        assert entry.model.num_params > 0
        assert os.path.isdir(entry.path)

    def test_journal_only_resume_without_pipeline_cache(self, journal_dir):
        """Records alone resume the exploration: no pipeline runs at all,
        so a deleted stage cache does not matter."""
        space = tiny_space()
        journal = ExplorationJournal.open(journal_dir, space)
        digests = {c.digest() for c in space.grid(
            os.path.join(journal_dir, "cache"))}
        assert journal.record_digests() >= digests


class TestSerialParallelBitIdentity:
    @pytest.fixture(scope="class")
    def space(self):
        return tiny_space(seeds=(0, 1))

    @pytest.fixture(scope="class")
    def journals(self, tmp_path_factory, space):
        root = tmp_path_factory.mktemp("bitident")
        serial = str(root / "serial")
        parallel = str(root / "parallel")
        run_exploration(space, serial, jobs=1)
        run_exploration(space, parallel, jobs=2)
        return serial, parallel

    def test_record_files_bit_identical(self, journals):
        serial, parallel = journals
        names = sorted(os.listdir(os.path.join(serial, "records")))
        assert names == sorted(os.listdir(
            os.path.join(parallel, "records")))
        assert len(names) == 4
        for name in names:
            a = open(os.path.join(serial, "records", name), "rb").read()
            b = open(os.path.join(parallel, "records", name), "rb").read()
            assert a == b

    def test_space_and_report_bit_identical(self, journals):
        serial, parallel = journals
        for name in ("space.json", "report.json"):
            a = open(os.path.join(serial, name), "rb").read()
            b = open(os.path.join(parallel, name), "rb").read()
            assert a == b

    def test_frontiers_identical(self, journals):
        serial, parallel = journals
        a = json.load(open(os.path.join(serial, "report.json")))
        b = json.load(open(os.path.join(parallel, "report.json")))
        assert a["frontier"] == b["frontier"]
        assert a["records"] == b["records"]


class TestSensitivityStrategy:
    def test_greedy_per_layer_search(self, tmp_path):
        space = tiny_space(strategy="sensitivity", qualities=(0.5,),
                           sensitivity_counts=(1,))
        report = run_exploration(space, str(tmp_path / "j"))
        designs = [r["design"] for r in report.records]
        assert designs[0] == "conventional"
        # face has 2 parameterised layers: the greedy ladder emits
        # per-layer plans of increasing depth
        assert all(d.startswith("mixed:") for d in designs[1:])
        assert len(designs) <= 3
        depths = [sum(1 for c in d.split(":")[1].split("-") if c != "0")
                  for d in designs[1:]]
        assert depths == sorted(depths)
        assert report.frontier

    def test_sensitivity_resumes(self, tmp_path):
        space = tiny_space(strategy="sensitivity", qualities=(0.5,))
        first = run_exploration(space, str(tmp_path / "j"))
        again = run_exploration(space, str(tmp_path / "j"))
        assert again.evaluated == 0
        assert again.records == first.records

    def test_max_candidates_bounds_search(self, tmp_path):
        space = tiny_space(strategy="sensitivity", qualities=(0.5,),
                           max_candidates=2)
        report = run_exploration(space, str(tmp_path / "j"))
        assert len(report.records) <= 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestExploreCLI:
    def _space_file(self, tmp_path) -> str:
        path = tmp_path / "space.json"
        path.write_text(json.dumps(tiny_space(name="cli-space").to_dict()))
        return str(path)

    def test_explore_command(self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "journal")
        code = main(["explore", self._space_file(tmp_path),
                     "--journal", journal, "--quiet",
                     "--json", str(tmp_path / "out.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "Pareto frontier" in out
        assert os.path.isfile(tmp_path / "out.json")
        # resume: instant, 100% journal hits
        code = main(["explore", self._space_file(tmp_path),
                     "--journal", journal, "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 / 0" in out

    def test_explore_bad_space_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"app": "imagenet"}))
        assert main(["explore", str(path)]) == 1
        assert "unknown app" in capsys.readouterr().err

    def test_list_shows_runs_and_journals(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        Pipeline(PipelineConfig(app="face", designs=("asm1",),
                                stages=("energy",), budget=TINY,
                                cache_dir=cache)).run()
        journal = str(tmp_path / "explore" / "journal")
        run_exploration(tiny_space(), journal)
        code = main(["list", "--cache-dir", cache,
                     "--explore-dir", str(tmp_path / "explore")])
        out = capsys.readouterr().out
        assert code == 0
        assert "designs=asm1" in out
        assert "app=face strategy=grid records=2 (report ready)" in out

    def test_run_multi_seed_jobs(self, tmp_path, capsys):
        from repro.cli import main

        config = PipelineConfig(app="face", designs=("asm1",),
                                stages=("energy",), budget=TINY)
        path = config.save(str(tmp_path / "cfg.json"))
        code = main(["run", path, "--seeds", "0,1", "--jobs", "2",
                     "--quiet", "--json", str(tmp_path / "out.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("Pipeline - face") == 2
        data = json.load(open(tmp_path / "out.json"))
        assert len(data["reports"]) == 2
        assert [r["config"]["seed"] for r in data["reports"]] == [0, 1]

    def test_run_seed_and_seeds_are_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        config = PipelineConfig(app="face", designs=("asm1",),
                                stages=("energy",), budget=TINY)
        path = config.save(str(tmp_path / "cfg.json"))
        with pytest.raises(SystemExit) as exit_info:
            main(["run", path, "--seed", "3", "--seeds", "0,1"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def _run_config_dict(config_dict: dict) -> dict:
    """Top-level helper for the concurrent-writers test (picklable)."""
    report = Pipeline(PipelineConfig.from_dict(config_dict)).run()
    return report.to_dict()["stages"]
