"""Simulation kernels: toggle counting for the cycle-accurate engine.

:class:`~repro.hardware.simulator.CycleAccurateEngine` charges energy per
observed bit toggle on four net classes (input bus, pre-computer bank
outputs, product registers, accumulators).  The toggle counting itself is
a compute kernel like any other forward path, so it lives here in two
implementations behind the backend registry:

``reference``
    The original Python time loop — one broadcast input per iteration,
    kept as the bit-exact ground truth.  Its per-cycle scratch arrays are
    preallocated once per layer (an honest baseline should not pay
    allocator churn), but the O(fan_in x neuron-groups) Python iteration
    count is unchanged, so its cost is Python dispatch, not counting.

``fast``
    The vectorised lowering: the whole evaluation is laid out over the
    time axis at once — products as one ``(groups, fan_in, units)``
    integer product, bank values as an outer product with the alphabet,
    accumulators as a per-group cumulative sum — and all four toggle
    categories reduce to one batched XOR + popcount over consecutive
    rows of each stream.  The popcount is one ``np.bitwise_count`` pass,
    so building the streams, not counting them, dominates the cost.
    Bit-identical by construction: the streams are
    exactly the per-cycle values the reference loop visits, in the same
    order, including the zero-padded tail lanes of a ragged final neuron
    group and the ``prev_*`` register state carried across group
    boundaries (asserted in ``tests/test_sim_backends.py``).

Kernels operate on plain data (weights already remapped to effective
values, int64 inputs, the lane count and the bank's alphabet multiples),
so this module stays free of ``repro.hardware`` / ``repro.asm`` imports —
the engine object owns validation and energy bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.binary import popcount_array

__all__ = ["ACC_BITS", "TOGGLE_KEYS", "SimCounts",
           "simulate_layer_reference", "simulate_layer_fast"]

#: Mask width so two's-complement values compare on a fixed word width
#: (the accumulator register width of the modelled engine).
ACC_BITS = 32

_MASK = (1 << ACC_BITS) - 1

#: Net classes whose toggles are counted, in reporting order.
TOGGLE_KEYS = ("input_bus", "bank_outputs", "products", "accumulators")


@dataclass(frozen=True)
class SimCounts:
    """Raw counts of one simulated layer evaluation (no energy model)."""

    cycles: int
    busy_lane_cycles: int
    toggles: dict[str, int]


def _toggles(previous: np.ndarray, current: np.ndarray) -> int:
    """Summed Hamming distance between register states on ``ACC_BITS``
    bits — elementwise for the reference loop's single-cycle buffers,
    over aligned rows for the fast kernel's whole-schedule streams.
    Both backends count through this one function, so the masking and
    popcount rule cannot silently diverge (and its speed moves both
    backends alike)."""
    return int(popcount_array((previous ^ current) & _MASK).sum())


# ----------------------------------------------------------------------
# reference: the original per-cycle loop, scratch buffers hoisted
# ----------------------------------------------------------------------
def simulate_layer_reference(weights: np.ndarray, inputs: np.ndarray,
                             units: int,
                             bank_multiples: tuple[int, ...]) -> SimCounts:
    """Walk the schedule cycle by cycle, exactly like the hardware.

    *weights* is the ``(fan_in, neurons)`` effective-weight matrix,
    *inputs* the length-``fan_in`` int64 activation vector,
    *bank_multiples* the alphabet entries ``> 1`` the pre-computer bank
    recomputes each cycle (empty for conventional and multiplierless
    engines).
    """
    fan_in, neurons = weights.shape
    bank_base = np.asarray(bank_multiples, dtype=np.int64)

    cycles = 0
    busy_lane_cycles = 0
    toggles = dict.fromkeys(TOGGLE_KEYS, 0)
    # all per-cycle state lives in buffers allocated once per layer
    prev_input = np.zeros(1, dtype=np.int64)
    current_input = np.zeros(1, dtype=np.int64)
    prev_bank = np.zeros(bank_base.shape, dtype=np.int64)  # bank of x=0
    bank = np.zeros(bank_base.shape, dtype=np.int64)
    prev_products = np.zeros(units, dtype=np.int64)
    products = np.zeros(units, dtype=np.int64)
    accumulators = np.zeros(units, dtype=np.int64)
    previous_acc = np.zeros(units, dtype=np.int64)

    for group_start in range(0, neurons, units):
        group = weights[:, group_start:group_start + units]
        lanes = group.shape[1]
        accumulators[:] = 0          # group reset is not a charged toggle
        for t in range(fan_in):
            x = int(inputs[t])
            current_input[0] = x
            toggles["input_bus"] += _toggles(prev_input, current_input)
            prev_input[0] = x

            if bank.size:
                np.multiply(bank_base, x, out=bank)
                toggles["bank_outputs"] += _toggles(prev_bank, bank)
                prev_bank[:] = bank

            products[:] = 0
            np.multiply(group[t], x, out=products[:lanes])
            toggles["products"] += _toggles(prev_products, products)
            prev_products[:] = products

            previous_acc[:] = accumulators
            accumulators += products
            toggles["accumulators"] += _toggles(previous_acc, accumulators)
            cycles += 1
            busy_lane_cycles += lanes

    return SimCounts(cycles=cycles, busy_lane_cycles=busy_lane_cycles,
                     toggles=toggles)


# ----------------------------------------------------------------------
# fast: one batched pass over the whole time axis
# ----------------------------------------------------------------------
def simulate_layer_fast(weights: np.ndarray, inputs: np.ndarray,
                        units: int,
                        bank_multiples: tuple[int, ...]) -> SimCounts:
    """Vectorised toggle counting, bit-identical to the reference loop.

    Every net-class stream is materialised as an array whose rows are the
    per-cycle register values in schedule order (groups outer, time
    inner), with the register's initial state prepended; consecutive-row
    XOR + popcount then yields exactly the reference's toggle counts.
    """
    fan_in, neurons = weights.shape
    toggles = dict.fromkeys(TOGGLE_KEYS, 0)
    n_groups = -(-neurons // units) if neurons else 0
    cycles = n_groups * fan_in
    if cycles == 0:
        return SimCounts(cycles=0, busy_lane_cycles=0, toggles=toggles)
    tail_lanes = neurons - (n_groups - 1) * units
    busy_lane_cycles = fan_in * ((n_groups - 1) * units + tail_lanes)

    # products: (groups, fan_in, units) with the ragged tail zero-padded,
    # exactly the values the idle lanes of the last group register
    padded = np.zeros((fan_in, n_groups * units), dtype=np.int64)
    padded[:, :neurons] = weights
    grouped = padded.reshape(fan_in, n_groups, units).transpose(1, 0, 2)
    products = grouped * inputs[np.newaxis, :, np.newaxis]

    # input bus: the same activation stream is re-broadcast once per
    # group; the register starts at 0
    stream = np.concatenate([np.zeros(1, dtype=np.int64),
                             np.tile(inputs, n_groups)])
    toggles["input_bus"] = _toggles(stream[:-1], stream[1:])

    # bank outputs: outer(input stream, alphabet multiples); the leading
    # zero row is the bank's x=0 initial state
    if bank_multiples:
        bank = np.multiply.outer(
            stream, np.asarray(bank_multiples, dtype=np.int64))
        toggles["bank_outputs"] = _toggles(bank[:-1], bank[1:])

    # product registers carry across group boundaries (no reset), so the
    # stream is the flat schedule order with one initial zero row
    flat = products.reshape(cycles, units)
    toggles["products"] = _toggles(
        np.concatenate([np.zeros((1, units), dtype=np.int64), flat[:-1]]),
        flat)

    # accumulators reset to 0 at each group start (uncharged), then run a
    # cumulative sum of the group's products
    acc = np.cumsum(products, axis=1)
    prev_acc = np.concatenate(
        [np.zeros((n_groups, 1, units), dtype=np.int64), acc[:, :-1, :]],
        axis=1)
    toggles["accumulators"] = _toggles(prev_acc, acc)

    return SimCounts(cycles=cycles, busy_lane_cycles=busy_lane_cycles,
                     toggles=toggles)
