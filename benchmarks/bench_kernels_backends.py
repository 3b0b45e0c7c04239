"""Kernel-backend throughput: fast (BLAS) vs reference (integer) kernels.

Runs the same quantised networks through both backends of
:mod:`repro.kernels`, asserts bit-identity, and emits a machine-readable
``BENCH_kernels.json`` (samples/sec per backend + speedup) at the repo
root so the perf trajectory of the hot path has data over time.  The
``kernels-smoke`` CI job runs this bench and checks the dense speedup
floor.
"""

import time

import numpy as np
from conftest import emit, emit_json

from repro.asm.alphabet import ALPHA_2
from repro.asm.multiplier import Multiplier
from repro.datasets.registry import lenet, mlp
from repro.hardware.report import format_table
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork

N_DENSE = 1024
N_CONV = 64
ROUNDS = 5
RNG = np.random.default_rng(9)


def _samples_per_sec(forward, x, rounds: int = ROUNDS) -> float:
    forward(x)                                   # warm caches / folded plans
    start = time.perf_counter()
    for _ in range(rounds):
        forward(x)
    elapsed = (time.perf_counter() - start) / rounds
    return len(x) / elapsed


def _measure(quantized: QuantizedNetwork, x: np.ndarray) -> dict:
    reference = quantized.with_backend("reference")
    fast = quantized.with_backend("fast")
    assert np.array_equal(reference.forward(x), fast.forward(x)), \
        "backends diverged — the exactness guarantee is broken"
    ref_sps = _samples_per_sec(reference.forward, x)
    fast_sps = _samples_per_sec(fast.forward, x)
    return {
        "batch": len(x),
        "reference_samples_per_sec": round(ref_sps, 1),
        "fast_samples_per_sec": round(fast_sps, 1),
        "speedup": round(fast_sps / ref_sps, 2),
    }


def test_dense_and_conv_backends(benchmark):
    dense_net = QuantizedNetwork.from_float(
        mlp([1024, 100, 10], name="digits", seed=2),
        QuantizationSpec.constrained(8, Multiplier(ALPHA_2)))
    x_dense = RNG.uniform(-1.0, 1.0, size=(N_DENSE, 1024))

    conv_net = QuantizedNetwork.from_float(
        lenet(10, seed=3),
        QuantizationSpec.constrained(12, Multiplier(ALPHA_2)))
    x_conv = RNG.uniform(-1.0, 1.0, size=(N_CONV, 1, 32, 32))

    results = {
        "dense_mlp_8b_asm2": _measure(dense_net, x_dense),
        "conv_lenet_12b_asm2": _measure(conv_net, x_conv),
    }
    benchmark.pedantic(
        lambda: dense_net.with_backend("fast").forward(x_dense),
        rounds=3, iterations=1)
    emit_json("kernels", results)

    rows = [[name,
             f"{entry['reference_samples_per_sec']:.0f}",
             f"{entry['fast_samples_per_sec']:.0f}",
             f"{entry['speedup']:.2f}x"]
            for name, entry in results.items()]
    emit("bench_kernels_backends", format_table(
        ["Workload", "reference (sps)", "fast (sps)", "Speedup"], rows,
        title="Kernel backends - batched inference throughput"))

    # acceptance bar: fast >= 3x reference on batched dense inference
    dense_speedup = results["dense_mlp_8b_asm2"]["speedup"]
    assert dense_speedup >= 3.0, \
        f"fast backend only {dense_speedup:.2f}x reference on dense"
