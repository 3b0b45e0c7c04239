"""Gate-level component library for the neuron datapath models.

Every component exposes a :class:`CostBreakdown` (area, energy per
operation, critical-path delay) computed from gate counts and the
:class:`~repro.hardware.technology.TechnologyModel`.  Composites aggregate
children; each child carries a *multiplicity* (fractional multiplicities
express CSHM sharing — a pre-computer bank amortised over four MAC units
contributes a quarter of its area and energy to each).

Activity factors model how often a component's nodes actually switch per
operation: array multipliers glitch (activity > 1), select muxes switch
rarely (activity < 1).  Delay is *not* scaled by activity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fixedpoint.binary import clog2
from repro.hardware.technology import TechnologyModel

__all__ = [
    "Component",
    "GateBank",
    "Composite",
    "RippleCarryAdder",
    "CarrySkipAdder",
    "KoggeStoneAdder",
    "best_adder",
    "ArrayMultiplier",
    "BarrelShifter",
    "MuxTree",
    "Register",
    "ActivationLUT",
    "ControlLogic",
    "WireBus",
]


@dataclass(frozen=True)
class CostBreakdown:
    """Aggregate cost of a component (per instance, per operation)."""

    area_um2: float
    energy_fj: float
    delay_ps: float

    def scaled(self, area: float = 1.0, energy: float = 1.0,
               delay: float = 1.0) -> "CostBreakdown":
        return CostBreakdown(self.area_um2 * area, self.energy_fj * energy,
                             self.delay_ps * delay)


class Component:
    """Base class; subclasses fill ``gate_counts``/``path`` or ``children``."""

    def __init__(self, tech: TechnologyModel, name: str,
                 activity: float = 1.0) -> None:
        if activity < 0:
            raise ValueError(f"activity must be non-negative, got {activity}")
        self.tech = tech
        self.name = name
        self.activity = activity
        #: gate kind -> count for this component's own gates
        self.gate_counts: dict[str, float] = {}
        #: sequence of gate kinds along the critical path
        self.path: list[str] = []
        #: (child, multiplicity, on_critical_path)
        self.children: list[tuple[Component, float, bool]] = []

    # ------------------------------------------------------------------
    @property
    def area_um2(self) -> float:
        area = sum(self.tech.area(kind) * count
                   for kind, count in self.gate_counts.items())
        area += sum(child.area_um2 * mult for child, mult, _ in self.children)
        return area

    @property
    def energy_fj(self) -> float:
        own = sum(self.tech.energy(kind) * count
                  for kind, count in self.gate_counts.items()) * self.activity
        return own + sum(child.energy_fj * mult
                         for child, mult, _ in self.children)

    @property
    def delay_ps(self) -> float:
        own = sum(self.tech.delay(kind) for kind in self.path)
        child_delay = max(
            (child.delay_ps for child, _, on_path in self.children if on_path),
            default=0.0,
        )
        return own + child_delay

    def cost(self) -> CostBreakdown:
        return CostBreakdown(self.area_um2, self.energy_fj, self.delay_ps)

    # ------------------------------------------------------------------
    def add_child(self, child: "Component", multiplicity: float = 1.0,
                  on_critical_path: bool = True) -> "Component":
        if multiplicity < 0:
            raise ValueError("multiplicity must be non-negative")
        self.children.append((child, multiplicity, on_critical_path))
        return child

    def report(self, indent: int = 0) -> str:
        """Human-readable hierarchical cost report."""
        pad = "  " * indent
        cost = self.cost()
        lines = [
            f"{pad}{self.name}: area={cost.area_um2:.1f}um2 "
            f"energy={cost.energy_fj:.1f}fJ delay={cost.delay_ps:.0f}ps"
        ]
        for child, mult, _ in self.children:
            suffix = f" x{mult:g}" if mult != 1.0 else ""
            lines.append(child.report(indent + 1) + suffix)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class GateBank(Component):
    """A flat bag of gates with an explicit critical path."""

    def __init__(self, tech: TechnologyModel, name: str,
                 counts: dict[str, float], path: list[str] | None = None,
                 activity: float = 1.0) -> None:
        super().__init__(tech, name, activity)
        for kind, count in counts.items():
            tech.spec(kind)  # validate
            if count < 0:
                raise ValueError(f"negative count for {kind}")
        self.gate_counts = dict(counts)
        self.path = list(path or [])


class Composite(Component):
    """A named grouping of child components."""

    def __init__(self, tech: TechnologyModel, name: str) -> None:
        super().__init__(tech, name)


# ----------------------------------------------------------------------
# adders
# ----------------------------------------------------------------------
class RippleCarryAdder(Component):
    """Smallest adder: *width* full adders in a carry chain."""

    def __init__(self, tech: TechnologyModel, width: int,
                 activity: float = 1.0) -> None:
        if width < 1:
            raise ValueError("adder width must be positive")
        super().__init__(tech, f"rca{width}", activity)
        self.width = width
        self.gate_counts = {"FA": float(width)}
        self.path = ["FA"] * width


class CarrySkipAdder(Component):
    """Ripple adder with 4-bit skip groups — mid-range area/delay."""

    GROUP = 4

    def __init__(self, tech: TechnologyModel, width: int,
                 activity: float = 1.0) -> None:
        if width < 1:
            raise ValueError("adder width must be positive")
        super().__init__(tech, f"csa{width}", activity)
        self.width = width
        groups = -(-width // self.GROUP)
        self.gate_counts = {
            "FA": float(width),
            "AND2": float(width),        # propagate detection
            "MUX2": float(groups),       # skip muxes
        }
        # first group ripples, then one skip mux per group, last group ripples
        self.path = (["FA"] * min(width, self.GROUP)
                     + ["MUX2"] * max(0, groups - 2)
                     + ["FA"] * min(width, self.GROUP))


class KoggeStoneAdder(Component):
    """Parallel-prefix adder — fastest, largest."""

    def __init__(self, tech: TechnologyModel, width: int,
                 activity: float = 1.0) -> None:
        if width < 1:
            raise ValueError("adder width must be positive")
        super().__init__(tech, f"ksa{width}", activity)
        self.width = width
        levels = max(1, clog2(width))
        self.gate_counts = {
            "XOR2": float(2 * width),            # pre/post processing
            "AND2": float(width * levels),       # prefix cells
            "OR2": float(width * levels),
        }
        self.path = ["XOR2"] + ["AND2", "OR2"] * levels + ["XOR2"]


def best_adder(tech: TechnologyModel, width: int, budget_ps: float,
               activity: float = 1.0) -> Component:
    """Smallest adder flavour meeting *budget_ps*, else the fastest.

    Mirrors what a synthesis tool's resource selection does under a timing
    constraint.
    """
    candidates = [
        RippleCarryAdder(tech, width, activity),
        CarrySkipAdder(tech, width, activity),
        KoggeStoneAdder(tech, width, activity),
    ]
    meeting = [c for c in candidates if c.delay_ps <= budget_ps]
    if meeting:
        return min(meeting, key=lambda c: c.area_um2)
    return min(candidates, key=lambda c: c.delay_ps)


# ----------------------------------------------------------------------
# multiplier and datapath pieces
# ----------------------------------------------------------------------
class ArrayMultiplier(Component):
    """Conventional signed array multiplier (Baugh-Wooley style).

    ``width**2`` partial-product AND gates feeding ``width*(width-1)`` full
    adders.  The default activity models partial-product glitching, the main
    reason multipliers dominate neuron power (paper §II).
    """

    GLITCH_ACTIVITY = 1.50

    def __init__(self, tech: TechnologyModel, width: int,
                 activity: float | None = None) -> None:
        if width < 2:
            raise ValueError("multiplier width must be at least 2")
        super().__init__(tech, f"mult{width}x{width}",
                         self.GLITCH_ACTIVITY if activity is None else activity)
        self.width = width
        self.gate_counts = {
            "AND2": float(width * width),
            "FA": float(width * (width - 1)),
        }
        # array critical path: one AND then a diagonal of 2*(width-1) FAs
        self.path = ["AND2"] + ["FA"] * (2 * (width - 1))


class BarrelShifter(Component):
    """Logarithmic shifter for shifts 0..max_shift on *width*-bit data."""

    def __init__(self, tech: TechnologyModel, width: int, max_shift: int,
                 activity: float = 1.0) -> None:
        if width < 1 or max_shift < 0:
            raise ValueError("invalid barrel shifter geometry")
        super().__init__(tech, f"bshift{width}s{max_shift}", activity)
        self.width = width
        self.max_shift = max_shift
        stages = clog2(max_shift + 1) if max_shift > 0 else 0
        self.gate_counts = {"MUX2": float(width * stages)}
        self.path = ["MUX2"] * stages


class MuxTree(Component):
    """*ways*-to-1 selector on *width*-bit data (the alphabet select unit)."""

    def __init__(self, tech: TechnologyModel, width: int, ways: int,
                 activity: float = 1.0) -> None:
        if width < 1 or ways < 1:
            raise ValueError("invalid mux geometry")
        super().__init__(tech, f"mux{ways}to1w{width}", activity)
        self.width = width
        self.ways = ways
        self.gate_counts = {"MUX2": float(width * max(0, ways - 1))}
        self.path = ["MUX2"] * clog2(max(ways, 1)) if ways > 1 else []


class Register(Component):
    """Pipeline/accumulator register of *width* flip-flops."""

    def __init__(self, tech: TechnologyModel, width: int,
                 activity: float = 0.5) -> None:
        if width < 1:
            raise ValueError("register width must be positive")
        super().__init__(tech, f"reg{width}", activity)
        self.width = width
        self.gate_counts = {"DFF": float(width)}
        self.path = ["DFF"]


class ActivationLUT(Component):
    """Sigmoid lookup table: ``2**in_bits`` words of *out_bits* bits.

    Per-access energy touches one word line; the per-bit constants already
    amortise the decoder.
    """

    def __init__(self, tech: TechnologyModel, in_bits: int,
                 out_bits: int) -> None:
        if in_bits < 1 or out_bits < 1:
            raise ValueError("invalid LUT geometry")
        super().__init__(tech, f"lut{in_bits}to{out_bits}")
        self.in_bits = in_bits
        self.out_bits = out_bits
        words = 1 << in_bits
        self.gate_counts = {"ROM_BIT": float(words * out_bits)}
        # reading touches out_bits cells, not the whole array
        self.activity = out_bits / (words * out_bits)
        self.path = ["ROM_BIT"] * 2 + ["NAND2"] * clog2(words)


class ControlLogic(Component):
    """Quartet decoder: maps each weight quartet to select/shift controls."""

    def __init__(self, tech: TechnologyModel, num_quartets: int,
                 num_alphabets: int) -> None:
        if num_quartets < 1 or num_alphabets < 1:
            raise ValueError("invalid control logic geometry")
        super().__init__(tech, f"ctl{num_quartets}q{num_alphabets}a",
                         activity=0.4)
        select_terms = clog2(num_alphabets) if num_alphabets > 1 else 0
        # per quartet: decode 4 bits into shift (2 bits) + select lines
        per_quartet = 6.0 + 3.0 * select_terms
        self.gate_counts = {"NAND2": per_quartet * num_quartets}
        self.path = ["NAND2", "NAND2"]


class WireBus(Component):
    """Shared routing from the pre-computer bank to the MAC units.

    The paper notes the number of communication buses out of the
    pre-computer is proportional to the number of alphabets; each bus is
    ``width`` bit-tracks of ``length_um`` micrometres.  The ``WIRE_TRACK``
    gate spec is interpreted *per micrometre* of track (area = routing pitch,
    energy = wire-capacitance switching energy).
    """

    def __init__(self, tech: TechnologyModel, width: int, n_buses: int,
                 length_um: float, activity: float = 0.5) -> None:
        if width < 1 or n_buses < 0 or length_um < 0:
            raise ValueError("invalid bus geometry")
        super().__init__(tech, f"bus{n_buses}x{width}", activity)
        self.gate_counts = {
            "WIRE_TRACK": float(width * n_buses) * length_um}
        self.path = ["WIRE_TRACK"]
