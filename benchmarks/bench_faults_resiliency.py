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

from repro.faults import ResiliencyReport, format_resiliency_report
from repro.pipeline import Pipeline, PipelineConfig

DESIGNS = ("conventional", "asm2", "asm8")
RATES = (0.001, 0.005, 0.02)


def test_bench_faults_resiliency(benchmark, tmp_path):
    budget = {"name": TINY.name, "n_train": TINY.n_train,
              "n_test": TINY.n_test, "max_epochs": TINY.max_epochs,
              "retrain_epochs": TINY.retrain_epochs}
    config = PipelineConfig(
        app="mnist_mlp", designs=DESIGNS,
        stages=("train", "quantize", "constrain", "evaluate", "faults"),
        budget=budget, cache_dir=str(tmp_path / "cache"),
        fault_rates=RATES, fault_kind="activation_upset", fault_seed=0)

    report = benchmark.pedantic(
        lambda: ResiliencyReport.from_pipeline_report(
            Pipeline(config).run()),
        rounds=1, iterations=1)

    emit("faults_resiliency", format_resiliency_report(report))
    emit_json("faults", report.bench_results())

    assert set(report.clean) == set(DESIGNS)
    assert len(report.points) == len(DESIGNS) * len(RATES)
    # every non-zero rate actually injected faults
    assert all(point.injected > 0 for point in report.points)
    # the tiny budget still trains a usable digit classifier
    assert report.min_clean_accuracy() > 0.5
