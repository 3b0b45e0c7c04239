"""Ablation: cycle-accurate (bit-toggle) vs analytic energy estimation.

Runs the same layer through the analytic CSHM engine and the cycle-accurate
simulator at several activation sparsity levels.  The analytic model is
data-blind; the simulator exposes the energy head-room that sparse
activations give shift-add datapaths.
"""

import numpy as np
from conftest import emit

from repro.asm.alphabet import ALPHA_1
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import Multiplier
from repro.hardware.engine import LayerWork, NetworkTopology, ProcessingEngine
from repro.hardware.report import format_table
from repro.hardware.simulator import CycleAccurateEngine

FAN_IN, NEURONS = 128, 16


def _weights(rng):
    raw = rng.integers(-127, 128, size=(FAN_IN, NEURONS))
    return WeightConstrainer(8, ALPHA_1).constrain_array(raw)


def test_ablation_cycle_accurate_energy(benchmark):
    rng = np.random.default_rng(0)
    weights = _weights(rng)
    dense_inputs = rng.integers(-120, 120, size=FAN_IN)

    def simulate_sparsities():
        sim = CycleAccurateEngine(8, Multiplier(ALPHA_1))
        traces = {}
        for sparsity in (0.0, 0.5, 0.9):
            inputs = dense_inputs.copy()
            drop = rng.permutation(FAN_IN)[:int(sparsity * FAN_IN)]
            inputs[drop] = 0
            traces[sparsity] = sim.run_layer(weights, inputs)
        return traces

    traces = benchmark.pedantic(simulate_sparsities, rounds=3, iterations=1)

    topo = NetworkTopology("layer", (LayerWork("fc", NEURONS, FAN_IN),))
    analytic = ProcessingEngine(8, Multiplier(ALPHA_1)).run(topo).energy_nj
    rows = [["analytic (data-blind)", "-", f"{analytic:.4f}", "-"]]
    for sparsity, trace in sorted(traces.items()):
        rows.append([f"simulated, sparsity {sparsity:.0%}",
                     trace.cycles, f"{trace.energy_nj:.4f}",
                     trace.toggles.total])
    emit("ablation_cycle_sim", format_table(
        ["Estimator", "Cycles", "Energy (nJ)", "Bit toggles"],
        rows, title="Ablation - cycle-accurate vs analytic energy (MAN)"))

    # cycles identical regardless of data; energy falls with sparsity
    cycles = {t.cycles for t in traces.values()}
    assert len(cycles) == 1
    assert traces[0.9].energy_nj < traces[0.5].energy_nj \
        < traces[0.0].energy_nj
    # the two estimators agree within an order of magnitude
    assert 0.1 < traces[0.0].energy_nj / analytic < 10.0
