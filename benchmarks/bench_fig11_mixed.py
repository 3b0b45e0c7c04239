"""Fig. 11: mixed-alphabet networks — accuracy and energy together."""

from conftest import emit

from repro.experiments import EXPERIMENTS, format_figure11_table
from repro.pipeline import run_pipeline


def test_fig11_mixed_mnist(benchmark):
    config = EXPERIMENTS["fig11"].configs[0]
    assert config.app == "mnist_mlp"
    report = benchmark.pedantic(lambda: run_pipeline(config),
                                rounds=1, iterations=1)
    emit("fig11", format_figure11_table(
        [report],
        "Fig 11 - mixed-alphabet accuracy and energy (tiny budget)"))

    assert set(report.config.designs) == {"conventional", "asm1", "mixed"}
    accuracy = {d: report.evaluate.row_for(d).accuracy
                for d in report.config.designs}
    energy = {d: report.energy.row_for(d).energy_nj
              for d in report.config.designs}
    # energy: man < mixed << conventional; the mixed overhead is tiny
    assert energy["asm1"] < energy["mixed"] < energy["conventional"]
    assert energy["mixed"] / energy["asm1"] < 1.05
    # accuracy: mixed recovers to within noise of the conventional baseline
    assert accuracy["mixed"] >= accuracy["asm1"] - 0.05
    assert accuracy["mixed"] >= accuracy["conventional"] - 0.10
