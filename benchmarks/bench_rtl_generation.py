"""Bench: Verilog generation + model-equivalence check for every datapath.

Not a paper table — infrastructure validation: generating all twelve RTL
modules and spot-proving the emitted case logic against the functional
multiplier must stay fast enough to run in CI.
"""

from conftest import emit

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import (
    CONVENTIONAL,
    AlphabetSetMultiplier,
    Multiplier,
)
from repro.hardware.report import format_table
from repro.rtl import (
    evaluate_mac_product,
    generate_asm_mac,
    generate_conventional_mac,
    module_name,
)


def test_rtl_generation_and_equivalence(benchmark):
    def generate_and_check():
        results = []
        for bits in (8, 12):
            results.append((module_name(bits, CONVENTIONAL),
                            len(generate_conventional_mac(bits).splitlines()),
                            "n/a"))
            for aset in (ALPHA_4, ALPHA_2, ALPHA_1):
                source = generate_asm_mac(bits, aset, fallback="nearest")
                model = AlphabetSetMultiplier(bits, aset,
                                              fallback="nearest")
                constrainer = WeightConstrainer(bits, aset)
                checked = 0
                limit = 2 ** (bits - 1)
                for raw in range(-limit + 1, limit, limit // 4):
                    weight = constrainer.constrain(raw)
                    assert evaluate_mac_product(source, weight, 57, bits) \
                        == model.multiply(weight, 57)
                    checked += 1
                results.append((module_name(bits, Multiplier(aset)),
                                len(source.splitlines()), checked))
        return results

    results = benchmark(generate_and_check)
    emit("rtl_generation", format_table(
        ["Module", "Verilog lines", "Equivalence points"],
        [list(r) for r in results],
        title="RTL generation + functional equivalence"))
    assert len(results) == 8
