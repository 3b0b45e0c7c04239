"""Neuron datapath designs: conventional, ASM and MAN variants.

A digital neuron (paper §II) is a multiply-accumulate datapath plus an
activation unit.  The three designs modelled here differ only in the
multiplier:

* :class:`ConventionalNeuron` — signed array multiplier (the baseline);
* :class:`ASMNeuron` — alphabet select / shift / add datapath fed by a
  pre-computer bank shared across a CSHM cluster (paper Fig. 3);
* the MAN is :class:`ASMNeuron` with alphabet set ``{1}``: the bank, bus and
  select network vanish and only shifters and adders remain.

Iso-speed comparison (paper §V, Table V): every design must run at the same
clock (3 GHz for 8-bit, 2.5 GHz for 12-bit).  Designs are split into
pipeline stages; within a stage, adder flavours are chosen the way a
synthesis tool's resource selection would (smallest meeting timing), and a
stage that still misses the clock is gate-sized up, multiplying its area and
energy by ``(delay / period) ** sizing_exponent``.  The CSHM alphabet bank
feeds the select units combinationally, so multi-alphabet ASMs carry the
bank delay in their multiply stage — the structural reason the single-
alphabet MAN enjoys a far larger iso-speed advantage, especially at 12 bits
(paper Figs. 8 and 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.alphabet import ALPHA_1, AlphabetSet
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.fixedpoint.binary import clog2
from repro.fixedpoint.quartet import QuartetLayout
from repro.hardware.components import (
    ActivationLUT,
    ArrayMultiplier,
    BarrelShifter,
    Component,
    ControlLogic,
    GateBank,
    MuxTree,
    Register,
    best_adder,
)
from repro.hardware.precompute import PrecomputeBank
from repro.hardware.technology import IBM45, TechnologyModel

__all__ = [
    "NeuronConfig",
    "NeuronCost",
    "Stage",
    "NeuronDesign",
    "ConventionalNeuron",
    "ASMNeuron",
    "make_neuron",
    "CLOCK_GHZ",
    "clock_for_bits",
]

#: Paper Table V: clock frequency under iso-speed comparison, per bit width.
CLOCK_GHZ = {8: 3.0, 12: 2.5}


def clock_for_bits(bits: int) -> float:
    """Iso-speed clock for *bits*-wide neurons.

    The paper pins 8-bit designs at 3 GHz and 12-bit at 2.5 GHz; other
    widths (the design-space explorer sweeps them) borrow the clock of
    the nearest published width, ties resolving to the narrower one.
    """
    if bits in CLOCK_GHZ:
        return CLOCK_GHZ[bits]
    nearest = min(CLOCK_GHZ, key=lambda known: (abs(known - bits), known))
    return CLOCK_GHZ[nearest]


@dataclass(frozen=True)
class NeuronConfig:
    """Shared design parameters (defaults reproduce the paper's setup).

    ``sizing_exponent`` controls how steeply a stage's area/energy grow when
    it must be gate-sized to meet the clock; ``accumulator_guard_bits`` is
    the accumulation headroom above the product width; ``lut_input_bits``
    sets the sigmoid LUT resolution (MSBs of the accumulator);
    ``activation_rate`` is how often the activation fires per MAC (once per
    fan-in); ``share_units`` is the CSHM cluster size.
    """

    sizing_exponent: float = 2.05
    #: energy grows more slowly than area under gate sizing (the wire load
    #: the sized gates drive is unchanged)
    energy_sizing_exponent: float = 0.5
    accumulator_guard_bits: int = 8
    lut_input_bits: int = 8
    activation_rate: float = 1.0 / 60.0
    share_units: int = 4
    #: physical pitch of one MAC unit; the CSHM bus spans share_units of
    #: these, so routing cost grows with both cluster and word size
    unit_pitch_um: float = 30.0


@dataclass
class Stage:
    """One pipeline stage: components plus an explicit critical path."""

    name: str
    parts: list[tuple[Component, float]] = field(default_factory=list)
    path_ps: float = 0.0

    def add(self, component: Component, multiplicity: float = 1.0) -> Component:
        self.parts.append((component, multiplicity))
        return component

    @property
    def area_um2(self) -> float:
        return sum(c.area_um2 * m for c, m in self.parts)

    @property
    def energy_fj(self) -> float:
        return sum(c.energy_fj * m for c, m in self.parts)


@dataclass(frozen=True)
class NeuronCost:
    """Iso-speed cost summary of one neuron design."""

    area_um2: float
    energy_per_mac_fj: float
    power_uw: float
    critical_path_ps: float
    max_sizing_factor: float

    def normalized_to(self, baseline: "NeuronCost") -> dict[str, float]:
        """Area/power/energy of this design relative to *baseline*."""
        return {
            "area": self.area_um2 / baseline.area_um2,
            "power": self.power_uw / baseline.power_uw,
            "energy": self.energy_per_mac_fj / baseline.energy_per_mac_fj,
        }


class NeuronDesign:
    """Base class: builds pipeline stages and applies iso-speed sizing."""

    def __init__(self, tech: TechnologyModel, bits: int,
                 clock_ghz: float | None = None,
                 config: NeuronConfig | None = None) -> None:
        self.tech = tech
        self.bits = bits
        self.clock_ghz = clock_ghz if clock_ghz is not None \
            else clock_for_bits(bits)
        self.config = config or NeuronConfig()
        self.period_ps = 1000.0 / self.clock_ghz
        self.stages: list[Stage] = []
        self._build()

    # -- subclasses populate self.stages -------------------------------
    def _build(self) -> None:
        raise NotImplementedError

    @property
    def name(self) -> str:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _new_stage(self, name: str) -> Stage:
        stage = Stage(name)
        self.stages.append(stage)
        return stage

    def _shared_backend(self) -> None:
        """Accumulate and activate stages, identical across designs."""
        acc_width = 2 * self.bits + self.config.accumulator_guard_bits
        accumulate = self._new_stage("accumulate")
        acc_adder = accumulate.add(
            best_adder(self.tech, acc_width, self.period_ps))
        accumulate.add(Register(self.tech, acc_width))
        accumulate.path_ps = acc_adder.delay_ps

        activate = self._new_stage("activate")
        lut = ActivationLUT(self.tech, self.config.lut_input_bits, self.bits)
        # the LUT is read once per neuron, i.e. activation_rate per MAC:
        # full area, scaled switching
        lut.activity *= self.config.activation_rate
        activate.add(lut)
        activate.path_ps = lut.delay_ps

        operands = self._new_stage("operands")
        operands.add(Register(self.tech, self.bits))  # input word
        operands.add(Register(self.tech, self.bits))  # weight word
        operands.path_ps = 0.0  # edge-triggered; clk->q inside the margin

    # -- cost aggregation ----------------------------------------------
    def stage_sizing(self, stage: Stage) -> tuple[float, float]:
        """(area factor, energy factor) for iso-speed gate sizing."""
        ratio = stage.path_ps / self.period_ps
        if ratio <= 1.0:
            return 1.0, 1.0
        return (ratio ** self.config.sizing_exponent,
                ratio ** self.config.energy_sizing_exponent)

    @property
    def critical_path_ps(self) -> float:
        return max(stage.path_ps for stage in self.stages)

    def cost(self) -> NeuronCost:
        area = 0.0
        energy = 0.0
        worst = 1.0
        for stage in self.stages:
            area_factor, energy_factor = self.stage_sizing(stage)
            worst = max(worst, area_factor)
            area += stage.area_um2 * area_factor
            energy += stage.energy_fj * energy_factor
        return NeuronCost(
            area_um2=area,
            energy_per_mac_fj=energy,
            power_uw=energy * self.clock_ghz,  # fJ * GHz = uW
            critical_path_ps=self.critical_path_ps,
            max_sizing_factor=worst,
        )

    def report(self) -> str:
        """Stage-by-stage cost table."""
        lines = [f"{self.name} @ {self.clock_ghz:g} GHz "
                 f"(period {self.period_ps:.0f} ps)"]
        for stage in self.stages:
            area_factor, _ = self.stage_sizing(stage)
            lines.append(
                f"  [{stage.name}] area={stage.area_um2:8.1f} um2  "
                f"energy={stage.energy_fj:7.2f} fJ  "
                f"path={stage.path_ps:5.0f} ps  sizing x{area_factor:.2f}"
            )
            for component, mult in stage.parts:
                suffix = f" x{mult:g}" if mult != 1.0 else ""
                lines.append(f"    - {component.name}{suffix}")
        return "\n".join(lines)


class ConventionalNeuron(NeuronDesign):
    """Baseline: signed array multiplier + accumulator + activation."""

    @property
    def name(self) -> str:
        return f"conventional-{self.bits}b"

    def _build(self) -> None:
        multiply = self._new_stage("multiply")
        multiplier = multiply.add(ArrayMultiplier(self.tech, self.bits))
        multiply.add(Register(self.tech, 2 * self.bits))
        multiply.path_ps = multiplier.delay_ps
        self._shared_backend()


class ASMNeuron(NeuronDesign):
    """ASM-based neuron; with ``ALPHA_1`` this is the MAN.

    The pre-computer bank and its distribution bus are shared by
    ``config.share_units`` MAC units (CSHM, paper Fig. 3): their area and
    energy enter with multiplicity ``1/share_units``, but their
    *combinational delay* sits fully on the multiply stage's path.
    """

    def __init__(self, tech: TechnologyModel, bits: int,
                 alphabet_set: AlphabetSet,
                 clock_ghz: float | None = None,
                 config: NeuronConfig | None = None) -> None:
        self.alphabet_set = alphabet_set
        self.layout = QuartetLayout(bits)
        super().__init__(tech, bits, clock_ghz, config)

    @property
    def name(self) -> str:
        label = "man" if self.alphabet_set.is_multiplierless else "asm"
        return f"{label}-{self.bits}b-{len(self.alphabet_set)}a"

    @property
    def is_man(self) -> bool:
        return self.alphabet_set.is_multiplierless

    def _build(self) -> None:
        bits, aset = self.bits, self.alphabet_set
        num_alphabets = len(aset)
        quartets = self.layout.num_quartets
        lane_width = bits + 4  # alphabet multiples reach 15x the input

        # pre-computer bank in its own pipeline stage, shared across the
        # CSHM cluster; the distribution bus spans the whole cluster
        bank = PrecomputeBank(
            self.tech, bits, aset, self.config.share_units, self.period_ps,
            bus_length_um=self.config.share_units * self.config.unit_pitch_um)
        if not bank.is_empty:
            bank_stage = self._new_stage("bank")
            bank_stage.add(bank, multiplicity=1.0 / self.config.share_units)
            bank_stage.path_ps = bank.path_ps

        multiply = self._new_stage("multiply")
        path_ps = 0.0
        control = multiply.add(
            ControlLogic(self.tech, quartets, num_alphabets))
        path_ps += control.delay_ps

        select_delay = 0.0
        for _ in range(quartets):
            if num_alphabets > 1:
                mux = multiply.add(
                    MuxTree(self.tech, lane_width, num_alphabets,
                            activity=0.5))
                select_delay = mux.delay_ps
            shifter = multiply.add(
                BarrelShifter(self.tech, lane_width, max_shift=3,
                              activity=0.6))
        path_ps += select_delay + shifter.delay_ps

        # combine the quartet lanes: carry-save rows then one fast adder
        product_width = 2 * bits - 2
        csa_rows = max(0, quartets - 2)
        if csa_rows:
            csa = multiply.add(GateBank(
                self.tech, f"csarow{product_width}",
                counts={"FA": float(product_width * csa_rows)},
                path=["FA"] * csa_rows))
            path_ps += csa.delay_ps
        if quartets > 1:
            final = multiply.add(best_adder(
                self.tech, product_width,
                self.period_ps - path_ps))
            path_ps += final.delay_ps
        multiply.add(Register(self.tech, 2 * bits))
        multiply.path_ps = path_ps

        self._shared_backend()


def make_neuron(bits: int, multiplier: Multiplier = CONVENTIONAL,
                tech: TechnologyModel = IBM45,
                clock_ghz: float | None = None,
                config: NeuronConfig | None = None) -> NeuronDesign:
    """Factory: the default builds the conventional baseline.

    >>> make_neuron(8).name
    'conventional-8b'
    >>> from repro.asm.alphabet import ALPHA_1
    >>> make_neuron(8, Multiplier(ALPHA_1)).name
    'man-8b-1a'
    """
    if multiplier == CONVENTIONAL:
        return ConventionalNeuron(tech, bits, clock_ghz, config)
    return ASMNeuron(tech, bits, multiplier.alphabet_set, clock_ghz, config)
