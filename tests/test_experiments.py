"""Integration tests for the experiment drivers (tiny budgets)."""

import numpy as np
import pytest

from repro.experiments.accuracy import (
    AccuracyGrid,
    format_accuracy_table,
    run_accuracy_grid,
)
from repro.experiments.energy import FIGURE9_GROUPS, run_figure9
from repro.experiments.power_area import (
    PAPER_VALUES,
    run_figure8,
    run_figure10,
)
from repro.experiments.tables import table1_rows, table4_rows, table5_rows
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
    def test_all_groups_covered(self):
        rows = run_figure9()
        assert {row.group for row in rows} == set(FIGURE9_GROUPS)

    def test_four_designs_per_app(self):
        rows = run_figure9()
        apps = {row.app for row in rows}
        for app in apps:
            assert sum(1 for r in rows if r.app == app) == 4

    def test_normalization_consistent(self):
        rows = run_figure9()
        for row in rows:
            if row.design == "conventional":
                assert row.normalized == pytest.approx(1.0)
            else:
                assert row.normalized < 1.0


class TestAccuracyGrid:
    @pytest.fixture(scope="class")
    def face_grid(self):
        return run_accuracy_grid("face", budget_override=TINY, seed=0)

    def test_row_structure(self, face_grid):
        assert isinstance(face_grid, AccuracyGrid)
        assert [r.num_alphabets for r in face_grid.rows] == [None, 4, 2, 1]

    def test_baseline_loss_zero(self, face_grid):
        assert face_grid.baseline.loss == 0.0

    def test_row_lookup(self, face_grid):
        assert face_grid.row_for(2).num_alphabets == 2
        with pytest.raises(KeyError):
            face_grid.row_for(3)

    def test_accuracies_valid(self, face_grid):
        for row in face_grid.rows:
            assert 0.0 <= row.accuracy <= 1.0

    def test_losses_consistent(self, face_grid):
        for row in face_grid.rows[1:]:
            assert row.loss == pytest.approx(
                face_grid.baseline.accuracy - row.accuracy)

    def test_format_table(self, face_grid):
        text = format_accuracy_table(face_grid, "demo")
        assert "conventional NN" in text
        assert "1 {1}" in text

    def test_custom_bits_override(self):
        grid = run_accuracy_grid("face", bits=8, budget_override=TINY,
                                 alphabet_counts=(1,), seed=0)
        assert grid.bits == 8
        assert len(grid.rows) == 2


class TestRunnerEntryPoints:
    def test_run_experiment_table1(self):
        from repro.experiments.runner import run_experiment
        text, _ = run_experiment("table1")
        assert "1001" in text

    def test_run_experiment_unknown(self):
        from repro.experiments.runner import run_experiment
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_runner_list(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table4" in out

    def test_runner_single_experiment(self, capsys):
        from repro.experiments.runner import execute
        assert execute(("table5",)) == 0
        assert "45nm" in capsys.readouterr().out

    def test_runner_json_output(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "fig8", "--json"]) == 0
        assert (tmp_path / "results" / "fig8.json").exists()
