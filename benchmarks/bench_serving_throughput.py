"""Serving throughput: compiled+batched vs naive per-sample inference.

Quantifies why the serving stack exists: (1) a
:class:`~repro.serving.compiled.CompiledModel` batched forward pass
amortises the integer matmul across samples, versus naively running the
quantised network one sample at a time; (2) the micro-batching queue turns
many single-sample requests into few forward passes.
"""

import time

import numpy as np
from conftest import emit

from repro.asm.alphabet import ALPHA_2
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import Multiplier
from repro.datasets.registry import mlp
from repro.hardware.report import format_table
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
from repro.serving import BatchSettings, CompiledModel, MicroBatcher
from repro.serving.artifact import save_artifact

N_SAMPLES = 256
RNG = np.random.default_rng(5)


def _build(tmp_path):
    network = mlp([1024, 100, 10], name="digits", seed=2)
    spec = QuantizationSpec(8, Multiplier(ALPHA_2),
                            constrainer=WeightConstrainer(8, ALPHA_2))
    quantized = QuantizedNetwork.from_float(network, spec)
    path = save_artifact(quantized, str(tmp_path / "digits"))
    return quantized, CompiledModel.load(path)


def test_compiled_batched_vs_naive(benchmark, tmp_path):
    quantized, compiled = _build(tmp_path)
    x = RNG.uniform(-1.0, 1.0, size=(N_SAMPLES, 1024))

    start = time.perf_counter()
    naive_scores = np.concatenate(
        [quantized.forward(x[i:i + 1]) for i in range(N_SAMPLES)], axis=0)
    naive_s = time.perf_counter() - start

    batched_scores = benchmark.pedantic(
        lambda: compiled.forward(x), rounds=3, iterations=1)
    start = time.perf_counter()
    compiled.forward(x)
    batched_s = time.perf_counter() - start

    assert np.array_equal(naive_scores, batched_scores)
    speedup = naive_s / batched_s
    emit("bench_serving_throughput", format_table(
        ["Path", "Time (ms)", "us/sample", "Speedup"],
        [["naive per-sample QuantizedNetwork", f"{naive_s * 1e3:.2f}",
          f"{naive_s / N_SAMPLES * 1e6:.1f}", "1.00x"],
         ["CompiledModel batched", f"{batched_s * 1e3:.2f}",
          f"{batched_s / N_SAMPLES * 1e6:.1f}", f"{speedup:.2f}x"]],
        title=f"Serving throughput - {N_SAMPLES} samples, digits MLP"))
    # acceptance bar: compiled batched inference >= 5x naive per-sample
    assert speedup >= 5.0, f"only {speedup:.1f}x over naive"


def test_microbatch_vs_unbatched_latency(benchmark, tmp_path):
    _, compiled = _build(tmp_path)
    x = RNG.uniform(-1.0, 1.0, size=(64, 1024))

    def run(settings: BatchSettings) -> tuple[float, float]:
        """Total wall time and mean batch size for 64 single requests."""
        from repro.serving import ServingMetrics
        metrics = ServingMetrics()
        with MicroBatcher(lambda key: compiled, settings,
                          metrics=metrics) as batcher:
            start = time.perf_counter()
            futures = [batcher.submit("digits", x[i]) for i in range(64)]
            for future in futures:
                future.result(timeout=30.0)
            elapsed = time.perf_counter() - start
        return elapsed, metrics.snapshot()["batch_size"]["mean"]

    unbatched_s, _ = run(BatchSettings(max_batch_size=1, max_latency_ms=0.0))
    batched_s, mean_batch = benchmark.pedantic(
        lambda: run(BatchSettings(max_batch_size=64, max_latency_ms=5.0)),
        rounds=1, iterations=1)

    emit("bench_serving_batching", format_table(
        ["Queue mode", "64 requests (ms)", "Mean batch"],
        [["unbatched (max_batch_size=1)", f"{unbatched_s * 1e3:.2f}", "1.0"],
         ["micro-batched (64, 5 ms)", f"{batched_s * 1e3:.2f}",
          f"{mean_batch:.1f}"]],
        title="Micro-batching - 64 concurrent single-sample requests"))
    assert mean_batch > 1.0, "micro-batcher never coalesced"


def test_compiled_load_vs_from_float(benchmark, tmp_path):
    """Artifact load skips training-side table/spec reconstruction."""
    network = mlp([1024, 100, 10], name="digits", seed=2)
    spec = QuantizationSpec(8, Multiplier(ALPHA_2),
                            constrainer=WeightConstrainer(8, ALPHA_2))
    quantized = QuantizedNetwork.from_float(network, spec)
    path = save_artifact(quantized, str(tmp_path / "digits"))

    start = time.perf_counter()
    for _ in range(5):
        QuantizedNetwork.from_float(network, spec)
    from_float_s = (time.perf_counter() - start) / 5

    load_s_holder = benchmark.pedantic(
        lambda: CompiledModel.load(path), rounds=5, iterations=1)
    assert load_s_holder is not None
    start = time.perf_counter()
    for _ in range(5):
        CompiledModel.load(path)
    load_s = (time.perf_counter() - start) / 5

    emit("bench_serving_load", format_table(
        ["Construction path", "Time (ms)"],
        [["QuantizedNetwork.from_float (requantise)",
          f"{from_float_s * 1e3:.2f}"],
         ["CompiledModel.load (artifact)", f"{load_s * 1e3:.2f}"]],
        title="Model construction - requantise vs artifact load"))
