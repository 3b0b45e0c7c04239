"""Integration tests for the experiment table (tiny budgets)."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    FIGURE9_GROUPS,
    execute,
    experiment_configs,
    format_accuracy_table,
    format_energy_table,
)
from repro.experiments.power_area import (
    PAPER_VALUES,
    run_figure8,
    run_figure10,
)
from repro.experiments.tables import table1_rows, table4_rows, table5_rows
from repro.pipeline import run_pipeline
from repro.pipeline.config import QUICK, Budget, budget

TINY = Budget("tiny", n_train=250, n_test=120, max_epochs=3,
              retrain_epochs=2)


class TestConfig:
    def test_budget_selector(self):
        assert budget(False).name == "quick"
        assert budget(True).name == "full"

    def test_quick_budget_small(self):
        assert QUICK.n_train < 1000


class TestTables:
    def test_table1_contains_paper_rows(self):
        rows = table1_rows()
        assert "2^5.(0011).I + 2^0.(1001).I" in rows[0][1]
        assert "2^6.(0001).I + 2^1.(0001).I" in rows[1][1]

    def test_table4_verifies_counts(self):
        rows = table4_rows(verify=True)
        assert len(rows) == 5

    def test_table5_clocks(self):
        rows = dict(table5_rows())
        assert rows["Clock Frequency for 8 bits Neuron"] == "3 GHz"
        assert rows["Clock Frequency for 12 bits Neuron"] == "2.5 GHz"


class TestHardwareFigures:
    def test_fig8_rows_complete(self):
        rows = run_figure8()
        keys = {(r.bits, r.num_alphabets) for r in rows}
        assert keys == {(b, a) for b in (8, 12)
                        for a in (None, 4, 2, 1)}

    def test_fig8_paper_values_attached(self):
        rows = run_figure8()
        by_key = {(r.bits, r.num_alphabets): r for r in rows}
        assert by_key[(8, 1)].paper == PAPER_VALUES[(8, 1, "power")]

    def test_fig10_normalized_baseline_is_one(self):
        for row in run_figure10():
            if row.num_alphabets is None:
                assert row.normalized == 1.0

    def test_bad_metric(self):
        from repro.experiments.power_area import run_hardware_grid
        with pytest.raises(ValueError):
            run_hardware_grid("latency")


class TestFig9:
    @pytest.fixture(scope="class")
    def reports(self):
        return [run_pipeline(config)
                for config in EXPERIMENTS["fig9"].configs]

    def test_all_groups_covered(self, reports):
        assert {report.config.app for report in reports} == {
            app for apps in FIGURE9_GROUPS.values() for app in apps}
        text = format_energy_table(reports, "demo")
        for group in FIGURE9_GROUPS:
            assert group in text

    def test_four_designs_per_app(self, reports):
        for report in reports:
            assert len(report.energy.rows) == 4

    def test_normalization_consistent(self, reports):
        for report in reports:
            for row in report.energy.rows:
                if row.design == "conventional":
                    assert row.normalized == pytest.approx(1.0)
                else:
                    assert row.normalized < 1.0


class TestAccuracyGrid:
    @pytest.fixture(scope="class")
    def face_grid(self):
        config = EXPERIMENTS["table2"].configs[0]
        return run_pipeline(config.with_overrides(budget=TINY, seed=0))

    def test_row_structure(self, face_grid):
        assert face_grid.config.app == "face"
        assert [r.design for r in face_grid.evaluate.rows] == [
            "conventional", "asm4", "asm2", "asm1"]

    def test_baseline_loss_zero(self, face_grid):
        assert face_grid.evaluate.row_for("conventional").loss == 0.0

    def test_row_lookup(self, face_grid):
        assert face_grid.evaluate.row_for("asm2").design == "asm2"
        with pytest.raises(KeyError):
            face_grid.evaluate.row_for("asm3")

    def test_accuracies_valid(self, face_grid):
        for row in face_grid.evaluate.rows:
            assert 0.0 <= row.accuracy <= 1.0

    def test_losses_consistent(self, face_grid):
        baseline = face_grid.quantize.baseline_accuracy
        for row in face_grid.evaluate.rows[1:]:
            assert row.loss == pytest.approx(baseline - row.accuracy)

    def test_format_table(self, face_grid):
        text = format_accuracy_table(face_grid, "demo")
        assert "conventional NN" in text
        assert "1 {1}" in text

    def test_custom_bits_override(self):
        config = EXPERIMENTS["table2"].configs[0].with_overrides(
            bits=8, designs=("conventional", "asm1"), budget=TINY, seed=0)
        report = run_pipeline(config)
        assert report.quantize.bits == 8
        assert len(report.evaluate.rows) == 2
        assert "8 bits" in format_accuracy_table(report, "demo")


class TestSharedConfigs:
    """Experiments sharing a config share one run (no training here)."""

    def test_accuracy_grids_dedupe(self):
        assert len(experiment_configs(("table2", "table3", "fig7"))) == 5

    def test_all_resolves_to_distinct_configs(self):
        assert len(experiment_configs(tuple(EXPERIMENTS))) == 14

    def test_full_and_seed_override_every_config(self):
        configs = experiment_configs(tuple(EXPERIMENTS), full=True, seed=3)
        assert len(configs) == 14
        assert {(c.budget, c.seed) for c in configs} == {("full", 3)}

    def test_hardware_only_experiments_need_no_configs(self):
        assert experiment_configs(
            ("table1", "table4", "table5", "fig8", "fig10")) == []


class TestRunnerEntryPoints:
    def test_run_experiment_table1(self, capsys):
        assert execute(("table1",)) == 0
        assert "1001" in capsys.readouterr().out

    def test_run_experiment_unknown(self):
        with pytest.raises(ValueError):
            experiment_configs(("fig99",))

    def test_runner_list(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table4" in out

    def test_runner_single_experiment(self, capsys):
        assert execute(("table5",)) == 0
        assert "45nm" in capsys.readouterr().out

    def test_runner_json_output(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "fig8", "--json"]) == 0
        assert (tmp_path / "results" / "fig8.json").exists()

    def test_unwritable_results_is_a_clean_error(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results").write_text("not a directory")
        assert main(["experiment", "fig8", "--json"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_traced_experiment_records_train_step(self, tmp_path,
                                                  monkeypatch, capsys):
        """``repro experiment --trace`` accounts the training kernels."""
        from repro import obs
        from repro.cli import main
        from repro.obs.stats import load_trace
        monkeypatch.chdir(tmp_path)
        try:
            assert main(["experiment", "export", "--trace", "t.jsonl"]) == 0
        finally:
            obs.reset()
        assert "[trace written to t.jsonl" in capsys.readouterr().out
        seconds = [row["value"] for row in load_trace("t.jsonl").metrics
                   if row["name"] == "kernels.seconds"
                   and row["labels"]["kernel"] == "train_step"]
        assert len(seconds) == 1 and seconds[0] > 0

    def test_unknown_experiment_is_a_clean_error(self, capsys):
        from repro.cli import main
        assert main(["experiment", "fig99"]) == 1
        assert "unknown experiment 'fig99'" in capsys.readouterr().err
