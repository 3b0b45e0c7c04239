"""Quickstart: the Alphabet Set Multiplier in five minutes.

Walks the paper's core ideas end to end on scalar values:

1. decompose a weight into select/shift/add terms (Table I),
2. see a reduced alphabet set fail on an unsupported weight,
3. constrain the weight (Algorithm 1) and multiply exactly,
4. run the Multiplier-less Neuron: the 1-alphabet ASM's shifts and adds,
5. compare hardware cost of conventional vs ASM vs MAN neurons.

Run:  python examples/quickstart.py
"""

from repro.asm import (
    ALPHA_1,
    ALPHA_2,
    FULL_ALPHABETS,
    AlphabetSetMultiplier,
    UnsupportedQuartetError,
    WeightConstrainer,
    format_decomposition,
)
from repro.asm.multiplier import Multiplier
from repro.fixedpoint import LAYOUT_8BIT
from repro.hardware import make_neuron


def main() -> None:
    weight, operand = 105, 66   # the paper's Table I example values

    print("=== 1. decomposition with the full alphabet set ===")
    print(f"  {format_decomposition(weight, LAYOUT_8BIT, FULL_ALPHABETS)}")
    exact = AlphabetSetMultiplier(8, FULL_ALPHABETS)
    print(f"  ASM product {weight} x {operand} = "
          f"{exact.multiply(weight, operand)} (exact: {weight * operand})")

    print("\n=== 2. reduced alphabets cannot cover every weight ===")
    reduced = AlphabetSetMultiplier(8, ALPHA_2)
    try:
        reduced.multiply(weight, operand)
    except UnsupportedQuartetError as error:
        print(f"  {error}")

    print("\n=== 3. constrain the weight (Algorithm 1), then multiply ===")
    constrainer = WeightConstrainer(8, ALPHA_2)
    constrained = constrainer.constrain(weight)
    print(f"  constrain({weight}) -> {constrained}")
    print(f"  ASM product {constrained} x {operand} = "
          f"{reduced.multiply(constrained, operand)} "
          f"(exact: {constrained * operand})")

    print("\n=== 4. the Multiplier-less Neuron: shifts and adds only ===")
    man_constrainer = WeightConstrainer(8, ALPHA_1)
    man_weight = man_constrainer.constrain(weight)
    man = AlphabetSetMultiplier(8, ALPHA_1)
    print(f"  constrain({weight}) -> {man_weight}")
    print(f"  {format_decomposition(man_weight, LAYOUT_8BIT, ALPHA_1)}")
    print(f"  MAN product {man_weight} x {operand} = "
          f"{man.multiply(man_weight, operand)} "
          f"(exact: {man_weight * operand})")

    print("\n=== 5. hardware cost at iso-speed (8-bit, 3 GHz) ===")
    conventional = make_neuron(8).cost()
    for label, aset in (("conventional", None), ("ASM {1,3}", ALPHA_2),
                        ("MAN {1}", ALPHA_1)):
        cost = make_neuron(8, Multiplier(aset)).cost()
        ratio = cost.normalized_to(conventional)
        print(f"  {label:13s}: area {cost.area_um2:7.1f} um2 "
              f"({ratio['area']:.2f}x)   power {cost.power_uw:7.1f} uW "
              f"({ratio['power']:.2f}x)")


if __name__ == "__main__":
    main()
