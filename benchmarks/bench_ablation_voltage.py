"""Ablation: voltage scaling on top of the MAN's timing slack.

The MAN meets the iso-speed clock with slack (its critical path is far
shorter than the conventional multiplier's).  That slack can be traded for
supply-voltage reduction: gates slow down (delay_ratio up) but dynamic
energy falls with Vdd^2.  This bench sweeps Vdd and reports the compounded
MAN energy advantage — an extension the paper leaves on the table.
"""

from conftest import emit

from repro.asm.alphabet import ALPHA_1
from repro.asm.multiplier import Multiplier
from repro.hardware.neuron import make_neuron
from repro.hardware.report import format_table
from repro.hardware.technology import IBM45, scaled_technology

#: Vdd ratio -> approximate gate-delay ratio (alpha-power law, 45 nm-ish).
VOLTAGE_POINTS = {1.0: 1.0, 0.9: 1.18, 0.8: 1.45}


def test_ablation_voltage_scaling(benchmark):
    def sweep():
        results = {}
        conv_nominal = make_neuron(8).cost()
        for vdd, delay_ratio in VOLTAGE_POINTS.items():
            tech = scaled_technology(IBM45, f"vdd{vdd:g}",
                                     vdd_ratio=vdd, delay_ratio=delay_ratio)
            man = make_neuron(8, Multiplier(ALPHA_1), tech=tech)
            results[vdd] = (man.cost(), man.critical_path_ps,
                            man.period_ps)
        return conv_nominal, results

    conv_nominal, results = benchmark(sweep)

    rows = []
    for vdd, (cost, path, period) in sorted(results.items(), reverse=True):
        meets = "yes" if path <= period else "NO"
        rows.append([f"{vdd:.1f}", f"{cost.energy_per_mac_fj:.0f}",
                     f"{cost.energy_per_mac_fj / conv_nominal.energy_per_mac_fj:.3f}",
                     f"{path:.0f}", meets])
    emit("ablation_voltage", format_table(
        ["Vdd ratio", "MAN energy/MAC (fJ)", "vs conv @ nominal",
         "crit path (ps)", "meets 3 GHz"],
        rows, title="Ablation - voltage-scaled 8-bit MAN"))

    # energy falls monotonically with Vdd
    energies = [results[v][0].energy_per_mac_fj
                for v in sorted(VOLTAGE_POINTS, reverse=True)]
    assert energies[0] > energies[1] > energies[2]
    # at 0.9 Vdd the MAN still meets the 3 GHz clock without sizing
    cost_09, path_09, period = results[0.9]
    assert path_09 <= period
    assert cost_09.max_sizing_factor == 1.0
