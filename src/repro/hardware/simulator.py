"""Cycle-accurate CSHM engine simulator with data-dependent energy.

The analytic :class:`~repro.hardware.engine.ProcessingEngine` costs every
MAC at the datapath's average energy.  This simulator actually *schedules*
the computation the way the paper's RTL engine does and charges energy per
observed bit toggle:

* one input activation is broadcast per cycle,
* the shared pre-computer bank recomputes its alphabet multiples,
* each of the ``units`` MAC lanes multiplies the broadcast input by its
  neuron's weight (already remapped to the ASM's effective value) and
  accumulates.

Energy is the Hamming distance between consecutive values on each tracked
net class (input bus, bank outputs, product registers, accumulators) times
a per-bit-toggle energy derived from the technology model.  Because toggles
depend on the operand stream, the simulator exposes the *data dependence*
of energy that the analytic model averages away — sparse activations make
shift-add datapaths cheaper still.

The toggle counting itself is a compute kernel of :mod:`repro.kernels`
(module :mod:`~repro.kernels.simulate`): ``backend="reference"`` walks
the schedule cycle by cycle, ``backend="fast"`` (the ``"auto"`` default)
lays the whole evaluation out over the time axis and counts all four
toggle categories in one batched XOR + popcount pass — bit-identical
traces, about two orders of magnitude less wall-clock (see
``BENCH_simulator.json``).  This class owns validation, the effective-
weight remap and the energy model; the kernels own the counting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.kernels import get_backend
from repro.kernels.registry import KernelBackend
from repro.hardware.technology import IBM45, TechnologyModel

__all__ = ["LayerTrace", "CycleAccurateEngine"]


@dataclass(frozen=True)
class ToggleCounts:
    """Bit toggles observed per net class over a layer evaluation."""

    input_bus: int
    bank_outputs: int
    products: int
    accumulators: int

    @property
    def total(self) -> int:
        return (self.input_bus + self.bank_outputs + self.products
                + self.accumulators)


@dataclass(frozen=True)
class LayerTrace:
    """Result of simulating one layer on the CSHM cluster."""

    name: str
    cycles: int
    macs: int
    toggles: ToggleCounts
    energy_nj: float
    utilization: float          # busy lane-cycles / (cycles * units)


class CycleAccurateEngine:
    """Bit-toggle-level simulation of the 4-unit CSHM processing engine.

    Parameters
    ----------
    bits:
        Word width of inputs and weights.
    multiplier:
        The conventional default simulates exact products; for an ASM,
        weights must be on its supported grid (use a
        :class:`~repro.asm.constraints.WeightConstrainer` first) — the
        simulator remaps through the effective-weight table and will raise
        on unsupported weights, exactly like the hardware.
    units:
        Lanes sharing the broadcast input and the bank.
    backend:
        Simulation-kernel backend (``"reference"`` / ``"fast"`` /
        ``"auto"``, or a :class:`~repro.kernels.registry.KernelBackend`).
        All backends produce bit-identical traces; the choice is a speed
        knob only.
    """

    #: energy per bit toggle per net class, in fJ (from the technology
    #: model: register toggles cost a DFF switch, bus toggles a wire run,
    #: combinational products an FA-dominated cone)
    def __init__(self, bits: int, multiplier: Multiplier = CONVENTIONAL,
                 units: int = 4, tech: TechnologyModel = IBM45,
                 backend: str | KernelBackend = "auto") -> None:
        if bits < 2:
            raise ValueError("word width must be at least 2 bits")
        if units < 1:
            raise ValueError("need at least one MAC lane")
        self.bits = bits
        self.units = units
        self.tech = tech
        self.multiplier = multiplier
        self._kernel = get_backend(backend)
        #: alphabet multiples the shared bank recomputes every cycle
        self.bank_multiples = multiplier.bank_multiples
        self.energy_per_toggle_fj = {
            "input_bus": tech.energy("WIRE_TRACK") * 30.0,  # ~30um of wire
            "bank_outputs": tech.energy("FA") * 1.5,
            "products": tech.energy("FA") * 2.5,
            "accumulators": tech.energy("DFF"),
        }

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the selected simulation-kernel backend."""
        return self._kernel.name

    def remap_weights(self, weights: np.ndarray) -> np.ndarray:
        """Validate *weights* and remap them to effective values once
        (:meth:`~repro.asm.multiplier.Multiplier.effective_weights` under
        the ``"error"`` policy).

        ``run_layer`` does this on every call; callers replaying many
        activation vectors against the same layer (the pipeline's
        ``sim_samples`` energy traces) remap once and pass
        ``remapped=True`` instead.
        """
        return self.multiplier.effective_weights(self.bits, weights)

    # ------------------------------------------------------------------
    def run_layer(self, weights: np.ndarray, inputs: np.ndarray,
                  name: str = "layer", remapped: bool = False) -> LayerTrace:
        """Simulate one dense layer: ``weights`` is ``(fan_in, neurons)``
        integers, ``inputs`` a length-``fan_in`` integer vector.
        ``remapped=True`` skips the effective-weight remap for weights
        already returned by :meth:`remap_weights`."""
        weights = np.asarray(weights, dtype=np.int64) if remapped \
            else self.remap_weights(weights)
        inputs = np.asarray(inputs, dtype=np.int64)
        if weights.ndim != 2 or inputs.ndim != 1 \
                or weights.shape[0] != inputs.shape[0]:
            raise ValueError(
                f"shape mismatch: weights {weights.shape}, "
                f"inputs {inputs.shape}"
            )
        fan_in, neurons = weights.shape

        if obs.enabled():
            started = time.perf_counter()
            counts = self._kernel.simulate_layer(
                weights, inputs, self.units, self.bank_multiples)
            obs.record_kernel(self._kernel.name, "simulate_layer",
                              time.perf_counter() - started)
        else:
            counts = self._kernel.simulate_layer(
                weights, inputs, self.units, self.bank_multiples)
        toggles = counts.toggles
        energy_fj = sum(toggles[key] * self.energy_per_toggle_fj[key]
                        for key in toggles)
        return LayerTrace(
            name=name,
            cycles=counts.cycles,
            macs=fan_in * neurons,
            toggles=ToggleCounts(
                input_bus=toggles["input_bus"],
                bank_outputs=toggles["bank_outputs"],
                products=toggles["products"],
                accumulators=toggles["accumulators"],
            ),
            energy_nj=energy_fj * 1e-6,
            utilization=counts.busy_lane_cycles
            / (counts.cycles * self.units) if counts.cycles else 0.0,
        )
