"""Technology model: per-gate area / energy / delay constants.

The paper synthesises its processing engine to the IBM 45 nm library with
Synopsys Design Compiler.  We cannot run a synthesis flow offline, so the
hardware package instead *counts structure*: every datapath is decomposed
into standard cells (full adders, muxes, flip-flops, ROM bits, wire tracks)
and costed with 45 nm-class per-gate constants.

The absolute numbers below are representative of a commercial 45 nm standard
cell library at nominal voltage (NAND2 ~1 µm², FO4 ~15-20 ps, ~0.5 fJ per
switching event) — close enough for the *relative* comparisons the paper
reports, which is all we claim to reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

__all__ = ["GateSpec", "TechnologyModel", "IBM45", "scaled_technology"]


@dataclass(frozen=True)
class GateSpec:
    """Cost of one standard cell instance."""

    area_um2: float
    energy_fj: float   # dynamic energy per output transition
    delay_ps: float    # propagation delay at nominal load

    def scaled(self, area: float = 1.0, energy: float = 1.0,
               delay: float = 1.0) -> "GateSpec":
        """Return a copy with each field multiplied by the given factor."""
        return GateSpec(self.area_um2 * area, self.energy_fj * energy,
                        self.delay_ps * delay)


# Gate kinds used by the component library.  Strings rather than an Enum so
# user-defined components can introduce new kinds without touching this file.
GATE_KINDS = (
    "INV", "NAND2", "AND2", "OR2", "XOR2", "MUX2", "HA", "FA", "DFF",
    "ROM_BIT", "WIRE_TRACK",
)


@dataclass(frozen=True)
class TechnologyModel:
    """A named set of :class:`GateSpec` entries plus global properties."""

    name: str
    feature_nm: int
    gates: Mapping[str, GateSpec]
    #: Nominal supply voltage; energy scales with the square of voltage in
    #: :func:`scaled_technology`.
    vdd: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", MappingProxyType(dict(self.gates)))
        missing = [k for k in GATE_KINDS if k not in self.gates]
        if missing:
            raise ValueError(f"technology {self.name} missing gates: {missing}")

    def spec(self, kind: str) -> GateSpec:
        """Look up the spec for a gate *kind*; raises KeyError if unknown."""
        try:
            return self.gates[kind]
        except KeyError:
            raise KeyError(
                f"technology {self.name} has no gate kind {kind!r}"
            ) from None

    def area(self, kind: str) -> float:
        return self.spec(kind).area_um2

    def energy(self, kind: str) -> float:
        return self.spec(kind).energy_fj

    def delay(self, kind: str) -> float:
        return self.spec(kind).delay_ps


#: 45 nm-class constants.  Delay figures are for the timing-relevant arc
#: (e.g. FA carry-in → carry-out, the arc that forms ripple chains).
IBM45 = TechnologyModel(
    name="ibm45-class",
    feature_nm=45,
    vdd=1.0,
    gates={
        "INV":        GateSpec(area_um2=0.53, energy_fj=0.25, delay_ps=9.0),
        "NAND2":      GateSpec(area_um2=0.80, energy_fj=0.45, delay_ps=14.0),
        "AND2":       GateSpec(area_um2=1.06, energy_fj=0.55, delay_ps=18.0),
        "OR2":        GateSpec(area_um2=1.06, energy_fj=0.55, delay_ps=18.0),
        "XOR2":       GateSpec(area_um2=1.60, energy_fj=1.00, delay_ps=24.0),
        "MUX2":       GateSpec(area_um2=1.33, energy_fj=0.70, delay_ps=20.0),
        "HA":         GateSpec(area_um2=2.70, energy_fj=1.40, delay_ps=26.0),
        # FA delay is the carry arc; the sum arc is similar.
        "FA":         GateSpec(area_um2=4.50, energy_fj=2.40, delay_ps=32.0),
        "DFF":        GateSpec(area_um2=4.80, energy_fj=1.80, delay_ps=45.0),
        # One ROM bit (decoder cost amortised into the per-bit figure).
        "ROM_BIT":    GateSpec(area_um2=0.09, energy_fj=0.012, delay_ps=0.4),
        # One micrometre of one routed bit-track (CSHM distribution bus):
        # area is the routing pitch footprint, energy the wire-capacitance
        # switching cost per transition per um.
        "WIRE_TRACK": GateSpec(area_um2=0.19, energy_fj=0.16, delay_ps=0.02),
    },
)


def scaled_technology(base: TechnologyModel, name: str,
                      vdd_ratio: float = 1.0,
                      delay_ratio: float = 1.0) -> TechnologyModel:
    """Derive a voltage/corner-scaled technology from *base*.

    Dynamic energy scales with ``vdd_ratio**2``; delays scale with
    *delay_ratio* (lower voltage → slower gates).  Useful for voltage-scaling
    what-if studies on top of the iso-speed comparisons.
    """
    gates = {
        kind: replace(
            spec,
            energy_fj=spec.energy_fj * vdd_ratio ** 2,
            delay_ps=spec.delay_ps * delay_ratio,
        )
        for kind, spec in base.gates.items()
    }
    return TechnologyModel(name=name, feature_nm=base.feature_nm,
                           gates=gates, vdd=base.vdd * vdd_ratio)
