"""Disabled-mode observability overhead on the kernels hot path.

Every quantised-layer forward now routes through
``repro.nn.quantized._dispatch``, whose disabled path is one
``obs.enabled()`` boolean check per kernel call.  This bench measures
that cost directly: the same dense forward batch, once through the
instrumented dispatch (obs disabled) and once calling the kernel backend
directly (no dispatch at all).  The acceptance bar for the obs layer is
**< 1% overhead**; results land in ``BENCH_obs.json`` at the repo root,
where the ``obs-smoke`` CI job checks the bar.

Best-of-N timing on a batch large enough that the integer matmul
dominates keeps the comparison stable against scheduler noise.
"""

import time

import numpy as np
from conftest import emit, emit_json

from repro import obs
from repro.asm.alphabet import ALPHA_2
from repro.asm.multiplier import Multiplier
from repro.datasets.registry import mlp
from repro.hardware.report import format_table
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork

N = 2048
ROUNDS = 30
RNG = np.random.default_rng(21)


def _best_seconds(*runs, rounds: int = ROUNDS) -> list[float]:
    """Best-of-*rounds* for each callable, rounds interleaved.

    Interleaving (a round of each, repeated) decorrelates the comparison
    from slow machine-state drift — measuring one path's 30 rounds and
    then the other's would charge any frequency/cache drift entirely to
    the second path.
    """
    for run in runs:
        run()                                    # warm caches
    best = [float("inf")] * len(runs)
    for _ in range(rounds):
        for index, run in enumerate(runs):
            start = time.perf_counter()
            run()
            best[index] = min(best[index],
                              time.perf_counter() - start)
    return best


def test_disabled_obs_overhead_under_one_percent(benchmark):
    obs.reset()                                  # obs must be OFF
    quantized = QuantizedNetwork.from_float(
        mlp([1024, 100, 10], name="digits", seed=2),
        QuantizationSpec.constrained(8, Multiplier(ALPHA_2)),
    ).with_backend("fast")
    x = RNG.uniform(-1.0, 1.0, size=(N, 1024))

    backend = quantized._backend
    codes0 = backend.quantize_input(x, quantized.act_fmt)
    layers = quantized.layers

    def dispatched() -> None:                    # instrumented path
        codes, fmt = codes0, quantized.act_fmt
        for layer in layers:
            codes, fmt = layer.forward(codes, fmt, backend)

    def direct() -> None:                        # dispatch bypassed
        codes, fmt = codes0, quantized.act_fmt
        for layer in layers:
            codes, fmt = getattr(backend, layer.kind)(layer, codes, fmt)

    direct_s, dispatched_s = _best_seconds(direct, dispatched)
    overhead_pct = 100.0 * (dispatched_s - direct_s) / direct_s

    benchmark.pedantic(dispatched, rounds=3, iterations=1)
    results = {
        "batch": N,
        "rounds": ROUNDS,
        "direct_ms": round(direct_s * 1e3, 4),
        "dispatched_disabled_ms": round(dispatched_s * 1e3, 4),
        "overhead_pct": round(overhead_pct, 4),
    }
    emit_json("obs", results)
    emit("bench_obs_overhead", format_table(
        ["Path", "best-of ms / batch"],
        [["direct backend call", f"{direct_s * 1e3:.3f}"],
         ["dispatch, obs disabled", f"{dispatched_s * 1e3:.3f}"],
         ["overhead", f"{overhead_pct:.3f}%"]],
        title="Observability disabled-path overhead (dense forward)"))

    assert overhead_pct < 1.0, \
        f"disabled obs dispatch costs {overhead_pct:.2f}% (bar: <1%)"
