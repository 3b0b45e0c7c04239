"""Ablation: CSHM pre-computer sharing factor.

The ASM only wins when the alphabet bank is amortised across MAC units
(paper §III: "ASMs will only be advantageous if ... shared").  This bench
sweeps the cluster size and shows the per-neuron cost of multi-alphabet
ASMs falling with sharing while the MAN (bankless) is indifferent.
"""

from conftest import emit

from repro.asm.alphabet import ALPHA_1, ALPHA_4
from repro.asm.multiplier import Multiplier
from repro.hardware.neuron import NeuronConfig, make_neuron
from repro.hardware.report import format_table


def test_ablation_sharing_factor(benchmark):
    def sweep():
        results = {}
        for share in (1, 2, 4, 8):
            config = NeuronConfig(share_units=share)
            for aset in (ALPHA_4, ALPHA_1):
                cost = make_neuron(8, Multiplier(aset), config=config).cost()
                results[(share, str(aset))] = cost
        return results

    results = benchmark(sweep)

    rows = [[share, aset, f"{cost.area_um2:.0f}", f"{cost.power_uw:.0f}"]
            for (share, aset), cost in sorted(results.items())]
    emit("ablation_sharing", format_table(
        ["Share units", "Alphabet set", "Area (um2)", "Power (uW)"],
        rows, title="Ablation - CSHM sharing factor (8-bit neuron)"))

    # multi-alphabet ASM: strictly cheaper with more sharing
    a4 = [results[(s, "{1,3,5,7}")].area_um2 for s in (1, 2, 4, 8)]
    assert a4[0] > a4[1] > a4[2] > a4[3]
    # MAN has no bank: sharing is irrelevant
    man = [results[(s, "{1}")].area_um2 for s in (1, 2, 4, 8)]
    assert max(man) - min(man) < 1e-9
