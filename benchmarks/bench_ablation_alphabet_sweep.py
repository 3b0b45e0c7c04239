"""Ablation: alphabet-set design-space sweep beyond the paper's ladder.

The paper only evaluates {1}, {1,3}, {1,3,5,7} and the full set.  This
bench sweeps every alphabet subset of size <= 3 plus the standard sets,
reporting quartet coverage against hardware cost — showing the paper's
ladder sits on the coverage/cost Pareto frontier.
"""

from itertools import combinations

from conftest import emit

from repro.asm.alphabet import STANDARD_SETS, AlphabetSet
from repro.asm.multiplier import Multiplier
from repro.hardware.neuron import make_neuron
from repro.hardware.report import format_table


def _candidate_sets():
    odds = (1, 3, 5, 7, 9, 11, 13, 15)
    sets = []
    for size in (1, 2, 3):
        for combo in combinations(odds, size):
            sets.append(AlphabetSet(combo))
    sets.extend(STANDARD_SETS.values())
    unique = {s.alphabets: s for s in sets}
    return list(unique.values())


def test_ablation_alphabet_sweep(benchmark):
    def sweep():
        results = []
        for aset in _candidate_sets():
            coverage = aset.coverage(4)
            cost = make_neuron(8, Multiplier(aset)).cost()
            results.append((aset, coverage, cost.area_um2))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    top = sorted(results, key=lambda r: (-r[1], r[2]))[:12]
    rows = [[str(a), f"{c:.3f}", f"{area:.0f}"] for a, c, area in top]
    emit("ablation_alphabet_sweep", format_table(
        ["Alphabet set", "Quartet coverage", "Area (um2)"],
        rows, title="Ablation - alphabet-set sweep (best coverage first)"))

    by_alphabets = {r[0].alphabets: r for r in results}
    # the paper's ladder is Pareto-efficient among same-size sets:
    # {1,3} has the best coverage of all 2-sets containing 1
    cov_13 = by_alphabets[(1, 3)][1]
    for combo, record in by_alphabets.items():
        if len(combo) == 2 and 1 in combo:
            assert record[1] <= cov_13 + 1e-9
    # coverage grows monotonically along the ladder
    assert by_alphabets[(1,)][1] < cov_13 < by_alphabets[(1, 3, 5, 7)][1]
