"""Resiliency bench: accuracy-vs-fault-rate curves, ASM vs conventional.

The paper's thesis is that neural networks tolerate multiplier error;
the natural robustness question is whether the alphabet-set designs
*also* tolerate device faults no worse than the conventional deployment.
This bench sweeps a deterministic activation-upset fault model over the
digits MLP at three rates for conventional/asm2/asm8, renders the curve,
and writes the gated scalars into ``BENCH_faults.json``:

* ``min_clean_accuracy`` — floor: every design must still classify at
  fault rate 0 (catches a broken train/constrain path);
* ``worst_excess_degradation_pp`` — ceiling: the worst ASM accuracy drop
  beyond conventional's at the same rate, in percentage points.

The CI ``faults-smoke`` job runs this bench through ``repro bench
faults``, which enforces both gates against the ledgered history.
"""

from conftest import TINY, emit, emit_json

from repro.pipeline import Pipeline, PipelineConfig
from repro.pipeline.report import format_report

DESIGNS = ("conventional", "asm2", "asm8")
RATES = (0.001, 0.005, 0.02)


def bench_results(report) -> dict:
    """The ``BENCH_faults.json`` results section of a faults run.

    The gate metrics are deliberately *top-level scalars*
    (``min_clean_accuracy``, ``worst_excess_degradation_pp``) — per-rate
    keys would contain dots, which the dotted-path gate resolver cannot
    address.
    """
    config, faults = report.config, report.require("faults")
    clean = {row.design: row.accuracy
             for row in report.require("evaluate").rows
             if row.design in config.designs}
    curves = {}
    for design in config.designs:
        rows = sorted((row for row in faults.rows if row.design == design),
                      key=lambda row: row.rate)
        curves[design] = {"rates": [row.rate for row in rows],
                          "accuracy": [row.accuracy for row in rows]}
    return {
        "app": config.app, "bits": config.word_bits(), "kind": faults.kind,
        "seed": faults.seed, "budget": config.tier().name,
        "min_clean_accuracy": min(clean.values()),
        "worst_excess_degradation_pp":
            faults.worst_excess_degradation_pp(),
        "clean": clean,
        "curves": curves,
    }


def test_bench_faults_resiliency(benchmark, tmp_path):
    budget = {"name": TINY.name, "n_train": TINY.n_train,
              "n_test": TINY.n_test, "max_epochs": TINY.max_epochs,
              "retrain_epochs": TINY.retrain_epochs}
    config = PipelineConfig(
        app="mnist_mlp", designs=DESIGNS,
        stages=("train", "quantize", "constrain", "evaluate", "faults"),
        budget=budget, cache_dir=str(tmp_path / "cache"),
        fault_rates=RATES, fault_kind="activation_upset", fault_seed=0)

    report = benchmark.pedantic(lambda: Pipeline(config).run(),
                                rounds=1, iterations=1)

    emit("faults_resiliency", format_report(report))
    results = bench_results(report)
    emit_json("faults", results)

    assert set(results["clean"]) == set(DESIGNS)
    assert len(report.faults.rows) == len(DESIGNS) * len(RATES)
    # every non-zero rate actually injected faults
    assert all(row.injected > 0 for row in report.faults.rows)
    # the tiny budget still trains a usable digit classifier
    assert results["min_clean_accuracy"] > 0.5
