"""Table III: MNIST digit-recognition accuracy across alphabet counts."""

from conftest import TINY, emit

from repro.experiments import EXPERIMENTS, format_accuracy_table
from repro.pipeline import run_pipeline


def test_table3_digit_accuracy(benchmark):
    config = EXPERIMENTS["table3"].configs[0].with_overrides(budget=TINY)
    assert config.app == "mnist_mlp"
    report = benchmark.pedantic(lambda: run_pipeline(config),
                                rounds=1, iterations=1)
    emit("table3", format_accuracy_table(
        report, "Table III - digit recognition, 8-bit MLP (tiny budget)"))
    assert report.quantize.baseline_accuracy > 0.6
    # retrained ASM rows stay close to the conventional baseline
    assert max(row.loss for row in report.evaluate.rows) < 0.15
