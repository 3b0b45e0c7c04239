"""Pre-computer bank model: generating alphabet multiples of the input.

Each alphabet ``a`` beyond 1 requires dedicated shift-add hardware: the
number of two-input adders equals the number of non-zero digits in the
canonical signed digit (CSD) form of ``a`` minus one (e.g. ``3I = I + 2I``
needs one adder, ``11I = 8I + 2I + I`` needs two, ``15I = 16I - I`` needs
one).  The bank also drives one output bus per alphabet across the CSHM
cluster — the paper's routing-complexity argument for reducing alphabets.
"""

from __future__ import annotations

from repro.asm.alphabet import AlphabetSet
from repro.fixedpoint.binary import clog2
from repro.hardware.components import (
    Composite,
    Register,
    WireBus,
    best_adder,
)
from repro.hardware.technology import TechnologyModel

__all__ = ["csd_digits", "csd_adder_count", "PrecomputeBank"]


def csd_digits(value: int) -> int:
    """Number of non-zero digits in the canonical signed-digit form.

    >>> [csd_digits(a) for a in (1, 3, 5, 7, 9, 11, 13, 15)]
    [1, 2, 2, 2, 2, 3, 3, 2]
    """
    if value < 0:
        raise ValueError(f"csd_digits expects a non-negative value, got {value}")
    digits = 0
    while value:
        if value & 1:
            # choose +1 or -1 so the remaining value is even; taking the
            # residue in {-1, +1} that makes (value - r) divisible by 4
            # yields the canonical minimal-weight form
            residue = 2 - (value & 3) if (value & 3) == 3 else (value & 3)
            value -= residue if residue == 1 else -1
            digits += 1
        value >>= 1
    return digits


def csd_adder_count(alphabet: int) -> int:
    """Two-input adders needed to produce ``alphabet * I`` from ``I``.

    >>> csd_adder_count(1), csd_adder_count(3), csd_adder_count(11)
    (0, 1, 2)
    """
    return max(0, csd_digits(alphabet) - 1)


class PrecomputeBank(Composite):
    """The shared alphabet generator of a CSHM cluster.

    Parameters
    ----------
    tech, bits:
        Technology and input word width.
    alphabet_set:
        Alphabets to generate.  ``{1}`` yields an empty bank (the MAN case).
    share_units:
        MAC units sharing this bank.  The *caller* applies the 1/share
        amortisation when embedding the bank in a per-neuron cost.
    period_ps:
        Clock budget used to pick adder flavours.
    bus_length_um:
        Physical span of the distribution bus across the CSHM cluster
        (0 disables the bus model).
    """

    def __init__(self, tech: TechnologyModel, bits: int,
                 alphabet_set: AlphabetSet, share_units: int,
                 period_ps: float, bus_length_um: float = 0.0) -> None:
        super().__init__(tech, f"precompute{bits}b{len(alphabet_set)}a")
        self.bits = bits
        self.alphabet_set = alphabet_set
        self.share_units = share_units
        self.path_ps = 0.0
        nontrivial = [a for a in alphabet_set if a > 1]
        max_chain = max((csd_adder_count(a) for a in alphabet_set), default=0)
        for alphabet in nontrivial:
            width = bits + clog2(alphabet + 1)
            chain = csd_adder_count(alphabet)
            # adders in a chain share the cycle: budget each accordingly
            budget = period_ps / max(1, max_chain)
            chain_delay = 0.0
            for _ in range(chain):
                adder = self.add_child(best_adder(tech, width, budget))
                chain_delay += adder.delay_ps
            self.path_ps = max(self.path_ps, chain_delay)
            # each generated multiple is registered before distribution
            self.add_child(Register(tech, width), on_critical_path=False)
        if nontrivial and bus_length_um > 0:
            # one bus per alphabet (including the pass-through 1*I) spanning
            # the cluster
            self.add_child(
                WireBus(tech, width=bits + 4, n_buses=len(alphabet_set),
                        length_um=bus_length_um),
                on_critical_path=False,
            )

    @property
    def num_adders(self) -> int:
        """Total shift-add operators inside the bank."""
        return sum(csd_adder_count(a) for a in self.alphabet_set)

    @property
    def is_empty(self) -> bool:
        """True for the MAN bank (alphabet set {1})."""
        return not any(a > 1 for a in self.alphabet_set)
