"""Simulation-kernel throughput: fast (vectorised) vs reference (loop).

Runs the cycle-accurate toggle simulator over the same layers through
both backends of :mod:`repro.kernels.simulate`, asserts the
:class:`~repro.hardware.simulator.LayerTrace` results are identical, and
emits machine-readable ``BENCH_simulator.json`` (ms per layer evaluation
per backend + speedup) at the repo root.  The ``perf-smoke`` CI job runs
this bench and enforces the speedup floor on the LeNet-scale dense
workload.
"""

import time

import numpy as np
from conftest import emit, emit_json

from repro.asm.alphabet import ALPHA_1, ALPHA_2
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import Multiplier
from repro.hardware.report import format_table
from repro.hardware.simulator import CycleAccurateEngine

RNG = np.random.default_rng(11)

#: acceptance bar: fast >= 20x reference on a LeNet-scale dense layer
SPEEDUP_FLOOR = 20.0

WORKLOADS = {
    # name: (bits, alphabet set, fan_in, neurons)
    "dense_400x120_8b_asm2": (8, ALPHA_2, 400, 120),
    "dense_400x120_8b_man": (8, ALPHA_1, 400, 120),
    "dense_256x32_12b_conventional": (12, None, 256, 32),
}


def _layer(bits, aset, fan_in, neurons):
    limit = 2 ** (bits - 1) - 1
    raw = RNG.integers(-limit, limit + 1, size=(fan_in, neurons))
    weights = WeightConstrainer(bits, aset).constrain_array(raw) \
        if aset is not None else raw
    inputs = RNG.integers(-limit, limit + 1, size=fan_in)
    return weights, inputs


def _ms_per_run(sim, weights, inputs, rounds):
    sim.run_layer(weights, inputs)                  # warm
    start = time.perf_counter()
    for _ in range(rounds):
        sim.run_layer(weights, inputs)
    return (time.perf_counter() - start) / rounds * 1e3


def test_simulator_backends(benchmark):
    results = {}
    for name, (bits, aset, fan_in, neurons) in WORKLOADS.items():
        weights, inputs = _layer(bits, aset, fan_in, neurons)
        reference = CycleAccurateEngine(bits, Multiplier(aset),
                                        backend="reference")
        fast = CycleAccurateEngine(bits, Multiplier(aset), backend="fast")
        ref_trace = reference.run_layer(weights, inputs)
        fast_trace = fast.run_layer(weights, inputs)
        assert ref_trace == fast_trace, \
            f"{name}: backends diverged - the bit-identity guarantee is " \
            f"broken"
        ref_ms = _ms_per_run(reference, weights, inputs, rounds=2)
        fast_ms = _ms_per_run(fast, weights, inputs, rounds=20)
        results[name] = {
            "cycles": ref_trace.cycles,
            "macs": ref_trace.macs,
            "toggles_total": ref_trace.toggles.total,
            "energy_nj": round(ref_trace.energy_nj, 6),
            "reference_ms": round(ref_ms, 3),
            "fast_ms": round(fast_ms, 3),
            "speedup": round(ref_ms / fast_ms, 1),
        }
    benchmark.pedantic(
        lambda: CycleAccurateEngine(
            8, Multiplier(ALPHA_2), backend="fast").run_layer(
            *_layer(8, ALPHA_2, 400, 120)),
        rounds=3, iterations=1)
    emit_json("simulator", results)

    rows = [[name, entry["cycles"], f"{entry['reference_ms']:.1f}",
             f"{entry['fast_ms']:.2f}", f"{entry['speedup']:.0f}x"]
            for name, entry in results.items()]
    emit("bench_simulator_backends", format_table(
        ["Workload", "Cycles", "reference (ms)", "fast (ms)", "Speedup"],
        rows, title="Simulation backends - cycle-accurate toggle counting"))

    lenet_speedup = results["dense_400x120_8b_asm2"]["speedup"]
    assert lenet_speedup >= SPEEDUP_FLOOR, \
        f"fast simulator only {lenet_speedup:.1f}x reference on the " \
        f"LeNet-scale dense layer (floor {SPEEDUP_FLOOR}x)"
