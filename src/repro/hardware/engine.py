"""CSHM processing engine: cycle counts and per-inference energy.

The paper's processing engine evaluates four neurons at a time (§III): one
input word is broadcast per cycle, the shared pre-computer bank produces its
alphabet multiples, and four MAC units consume it against four different
weights.  For a layer with ``n`` neurons of fan-in ``f`` the engine therefore
spends ``ceil(n / units) * f`` cycles.

Per-inference energy combines the engine's per-MAC datapath energy (from
:mod:`repro.hardware.neuron`, which already amortises the bank and bus over
the cluster) with per-neuron activation accesses.  Mixed per-layer alphabet
plans (paper §VI.E) assign a different neuron design to each layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.hardware.neuron import NeuronConfig, clock_for_bits, make_neuron
from repro.hardware.technology import IBM45, TechnologyModel

__all__ = ["LayerWork", "NetworkTopology", "ProcessingEngine",
           "EngineReport", "LayerEnergy"]


@dataclass(frozen=True)
class LayerWork:
    """Compute demand of one network layer during inference."""

    name: str
    neurons: int
    macs_per_neuron: int

    def __post_init__(self) -> None:
        if self.neurons < 1:
            raise ValueError(f"layer {self.name}: neurons must be positive")
        if self.macs_per_neuron < 0:
            raise ValueError(f"layer {self.name}: negative MAC count")

    @property
    def total_macs(self) -> int:
        return self.neurons * self.macs_per_neuron


@dataclass(frozen=True)
class NetworkTopology:
    """Ordered layers of a network, as seen by the processing engine."""

    name: str
    layers: tuple[LayerWork, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a topology needs at least one layer")

    @property
    def total_macs(self) -> int:
        return sum(layer.total_macs for layer in self.layers)

    @property
    def total_neurons(self) -> int:
        return sum(layer.neurons for layer in self.layers)

    @classmethod
    def from_layer_sizes(cls, name: str, input_size: int,
                         sizes: list[int]) -> "NetworkTopology":
        """Build an MLP topology: each layer is fully connected.

        >>> t = NetworkTopology.from_layer_sizes("mnist", 1024, [100, 10])
        >>> t.total_macs
        103400
        """
        layers = []
        fan_in = input_size
        for index, size in enumerate(sizes):
            layers.append(LayerWork(f"fc{index + 1}", size, fan_in))
            fan_in = size
        return cls(name, tuple(layers))


@dataclass(frozen=True)
class LayerEnergy:
    """Per-layer slice of an :class:`EngineReport`."""

    name: str
    cycles: int
    macs: int
    energy_nj: float
    alphabet_label: str


@dataclass(frozen=True)
class EngineReport:
    """Cycle and energy totals for one inference pass."""

    topology_name: str
    design_label: str
    cycles: int
    total_macs: int
    energy_nj: float
    latency_us: float
    layers: tuple[LayerEnergy, ...]
    #: silicon area of one CSHM cluster sized for the costliest layer
    #: design (a mixed deployment reconfigures one engine, so its area is
    #: the largest per-layer datapath, not the sum)
    area_um2: float = 0.0

    @property
    def energy_per_mac_fj(self) -> float:
        """Average datapath energy per MAC operation."""
        if not self.total_macs:
            return 0.0
        return self.energy_nj * 1e6 / self.total_macs

    def layer_cycle_fraction(self, last_n: int) -> float:
        """Fraction of cycles spent in the last *last_n* layers.

        Reproduces the paper's §VI.E observation that the concluding layers
        of the SVHN network use only ~3.84% of total processing cycles.
        """
        if not 0 <= last_n <= len(self.layers):
            raise ValueError(f"last_n must be in [0, {len(self.layers)}]")
        tail = sum(layer.cycles for layer in self.layers[-last_n:]) \
            if last_n else 0
        return tail / self.cycles if self.cycles else 0.0


class ProcessingEngine:
    """A cluster of ``units`` MAC datapaths sharing one pre-computer bank.

    Parameters
    ----------
    bits:
        Neuron word width; picks the paper clock unless ``clock_ghz`` given.
    multiplier:
        The engine's multiplier (default conventional).  Per-layer
        overrides are given to :meth:`run` for mixed plans.
    """

    def __init__(self, bits: int, multiplier: Multiplier = CONVENTIONAL,
                 tech: TechnologyModel = IBM45,
                 clock_ghz: float | None = None,
                 config: NeuronConfig | None = None,
                 backend: str = "auto") -> None:
        self.bits = bits
        self.tech = tech
        self.config = config or NeuronConfig()
        self.clock_ghz = clock_ghz if clock_ghz is not None \
            else clock_for_bits(bits)
        self.multiplier = multiplier
        self.units = self.config.share_units
        #: simulation-kernel backend handed to :meth:`simulator` engines
        #: (bit-identical traces across backends; a speed knob only)
        self.backend = backend
        self._design_cache: dict[Multiplier, object] = {}
        self._simulator_cache: dict[Multiplier, object] = {}

    # ------------------------------------------------------------------
    def _design(self, multiplier: Multiplier):
        if multiplier not in self._design_cache:
            self._design_cache[multiplier] = make_neuron(
                self.bits, multiplier, tech=self.tech,
                clock_ghz=self.clock_ghz, config=self.config)
        return self._design_cache[multiplier]

    def layer_cycles(self, layer: LayerWork) -> int:
        """Cycles to evaluate *layer*: groups of ``units`` neurons, one MAC
        per unit per cycle."""
        return ceil(layer.neurons / self.units) * layer.macs_per_neuron

    def simulator(self, multiplier: Multiplier | None = None):
        """A cycle-accurate twin of this engine (memoized per design).

        Shares the engine's word width, lane count, technology model and
        kernel ``backend``; *multiplier* defaults to the engine's own.
        The toggle-level simulator exposes the data dependence the analytic
        :meth:`run` averages away — the pipeline's energy stage uses it
        when ``sim_samples`` is configured.
        """
        from repro.hardware.simulator import CycleAccurateEngine

        if multiplier is None:
            multiplier = self.multiplier
        if multiplier not in self._simulator_cache:
            self._simulator_cache[multiplier] = CycleAccurateEngine(
                self.bits, multiplier, units=self.units, tech=self.tech,
                backend=self.backend)
        return self._simulator_cache[multiplier]

    # ------------------------------------------------------------------
    def run(self, topology: NetworkTopology,
            layer_alphabets: list[Multiplier] | None = None,
            ) -> EngineReport:
        """Cost one inference pass of *topology*.

        ``layer_alphabets`` optionally assigns a multiplier per layer; by
        default every layer uses the engine's own ``multiplier``.
        """
        if layer_alphabets is None:
            layer_alphabets = [self.multiplier] * len(topology.layers)
        if len(layer_alphabets) != len(topology.layers):
            raise ValueError(
                f"{len(layer_alphabets)} alphabet entries for "
                f"{len(topology.layers)} layers"
            )
        layers = []
        total_cycles = 0
        total_energy_fj = 0.0
        cluster_area_um2 = 0.0
        for layer, multiplier in zip(topology.layers, layer_alphabets):
            design = self._design(multiplier)
            cost = design.cost()
            # per-unit cost already amortises the shared bank/bus over the
            # cluster, so the cluster occupies units * per-unit area
            cluster_area_um2 = max(cluster_area_um2,
                                   cost.area_um2 * self.units)
            cycles = self.layer_cycles(layer)
            # every MAC costs the datapath energy; the idle lanes of a
            # ragged final group still clock their registers, which the
            # ceil() in the cycle count already over-approximates
            energy_fj = layer.total_macs * cost.energy_per_mac_fj
            layers.append(LayerEnergy(
                name=layer.name,
                cycles=cycles,
                macs=layer.total_macs,
                energy_nj=energy_fj * 1e-6,
                alphabet_label=str(multiplier),
            ))
            total_cycles += cycles
            total_energy_fj += energy_fj
        labels = [layer.alphabet_label for layer in layers]
        if len(set(labels)) == 1:
            design_label = labels[0]
        else:
            design_label = "mixed(" + ",".join(labels) + ")"
        return EngineReport(
            topology_name=topology.name,
            design_label=design_label,
            cycles=total_cycles,
            total_macs=topology.total_macs,
            energy_nj=total_energy_fj * 1e-6,
            latency_us=total_cycles / (self.clock_ghz * 1e3),
            layers=tuple(layers),
            area_um2=cluster_area_um2,
        )
