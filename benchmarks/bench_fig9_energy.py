"""Fig. 9: per-application inference energy, grouped by network class."""

from conftest import emit

from repro.experiments import EXPERIMENTS, FIGURE9_GROUPS, format_energy_table
from repro.pipeline import run_pipeline


def test_fig9_energy(benchmark):
    def run_all():
        return [run_pipeline(config)
                for config in EXPERIMENTS["fig9"].configs]

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("fig9", format_energy_table(
        reports, "Fig 9 - per-inference energy by application"))

    series = {report.config.app: {row.label: row.energy_nj
                                  for row in report.energy.rows}
              for report in reports}
    assert set(series) == {a for group in FIGURE9_GROUPS.values()
                           for a in group}
    # within every app: MAN < 2-alph < 4-alph < conventional
    for energy in series.values():
        assert energy["{1}"] < energy["{1,3}"] < energy["{1,3,5,7}"] \
            < energy["conventional"]

    # paper: absolute savings grow with NN size — SVHN (1M synapses) saves
    # more nJ than the MNIST MLP (100k synapses)
    def saving(app):
        return series[app]["conventional"] - series[app]["{1}"]
    assert saving("svhn") > saving("mnist_mlp")
