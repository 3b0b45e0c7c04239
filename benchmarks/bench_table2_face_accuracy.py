"""Table II: face-detection accuracy across alphabet counts (12-bit)."""

from conftest import TINY, emit

from repro.experiments import EXPERIMENTS, format_accuracy_table
from repro.pipeline import run_pipeline


def test_table2_face_accuracy(benchmark):
    config = EXPERIMENTS["table2"].configs[0].with_overrides(budget=TINY)
    report = benchmark.pedantic(lambda: run_pipeline(config),
                                rounds=1, iterations=1)
    emit("table2", format_accuracy_table(
        report, "Table II - NN accuracy, face detection (tiny budget)"))
    # paper shape: conventional row first, losses small on this easy task
    assert report.evaluate.rows[0].design == "conventional"
    assert report.quantize.baseline_accuracy > 0.7
    assert max(row.loss for row in report.evaluate.rows) < 0.15
