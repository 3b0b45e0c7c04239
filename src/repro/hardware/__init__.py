"""Gate-level hardware cost model (45 nm-class) for neuron datapaths.

Provides the structural area/energy/delay model standing in for the paper's
RTL + Synopsys DC @ IBM 45 nm flow: component library, conventional/ASM/MAN
neuron designs with iso-speed gate sizing, the shared pre-computer bank, and
the 4-unit CSHM processing engine used for per-inference energy.
"""

from repro.hardware.components import (
    ActivationLUT,
    ArrayMultiplier,
    BarrelShifter,
    CarrySkipAdder,
    Component,
    Composite,
    ControlLogic,
    GateBank,
    KoggeStoneAdder,
    MuxTree,
    Register,
    RippleCarryAdder,
    WireBus,
    best_adder,
)
from repro.hardware.engine import (
    LayerWork,
    NetworkTopology,
    ProcessingEngine,
)
from repro.hardware.neuron import (
    CLOCK_GHZ,
    ASMNeuron,
    ConventionalNeuron,
    NeuronConfig,
    Stage,
    clock_for_bits,
    make_neuron,
)
from repro.hardware.precompute import PrecomputeBank, csd_adder_count, csd_digits
from repro.hardware.report import format_table, normalized_series
from repro.hardware.simulator import (
    CycleAccurateEngine,
    LayerTrace,
)
from repro.hardware.technology import (
    IBM45,
    GateSpec,
    TechnologyModel,
    scaled_technology,
)

__all__ = [
    "ActivationLUT", "ArrayMultiplier", "BarrelShifter", "CarrySkipAdder",
    "Component", "Composite", "ControlLogic", "GateBank",
    "KoggeStoneAdder", "MuxTree", "Register", "RippleCarryAdder", "WireBus",
    "best_adder",
    "LayerWork", "NetworkTopology", "ProcessingEngine",
    "CLOCK_GHZ", "clock_for_bits", "ASMNeuron", "ConventionalNeuron",
    "NeuronConfig",
    "Stage", "make_neuron",
    "PrecomputeBank", "csd_adder_count", "csd_digits",
    "format_table", "normalized_series",
    "CycleAccurateEngine", "LayerTrace",
    "IBM45", "GateSpec", "TechnologyModel", "scaled_technology",
]
