"""Synthesisable Verilog generation for the neuron datapaths.

The paper's processing engine was "implemented at the Register-Transfer
Level (RTL) in Verilog and mapped to the IBM 45nm technology".  This module
regenerates that artifact: given a word width and an alphabet set it emits
a self-contained Verilog module for the MAC datapath — pre-computer bank,
per-quartet select/shift case logic, lane adder, sign restore and
accumulator.

The select/shift case arms are generated *from the same quartet maps the
Python functional model uses* (:class:`AlphabetSetMultiplier`), so the RTL
is semantically tied to the tested behaviour: every case arm realises
exactly the effective quartet value the simulator predicts, including the
fallback rounding for unsupported values.  The tests parse the emitted case
arms back and check them against the model.

No simulator or synthesis tool is required here; the output is plain
IEEE-1364 Verilog-2001 a downstream user can drop into their flow.
"""

from __future__ import annotations

from repro.asm.alphabet import AlphabetSet
from repro.asm.decompose import decompose_quartet
from repro.asm.multiplier import (
    CONVENTIONAL,
    AlphabetSetMultiplier,
    Multiplier,
)
from repro.fixedpoint.binary import clog2
from repro.fixedpoint.quartet import QuartetLayout

__all__ = ["generate_asm_mac", "generate_conventional_mac",
           "generate_precompute_bank", "module_name"]


def module_name(bits: int, multiplier: Multiplier) -> str:
    """Verilog module name for a datapath configuration.

    >>> from repro.asm.alphabet import ALPHA_1
    >>> module_name(8, Multiplier(ALPHA_1))
    'man_mac_8b'
    >>> module_name(8, CONVENTIONAL)
    'conv_mac_8b'
    """
    if multiplier == CONVENTIONAL:
        return f"conv_mac_{bits}b"
    if multiplier.alphabet_set.is_multiplierless:
        return f"man_mac_{bits}b"
    return f"asm{len(multiplier.alphabet_set)}_mac_{bits}b"


def _header(name: str, bits: int, acc_bits: int) -> list[str]:
    return [
        f"module {name} (",
        "    input  wire                     clk,",
        "    input  wire                     rst,",
        "    input  wire                     en,",
        f"    input  wire signed [{bits - 1}:0]  weight,",
        f"    input  wire signed [{bits - 1}:0]  act,",
        f"    output reg  signed [{acc_bits - 1}:0] acc",
        ");",
    ]


def _accumulator(acc_bits: int) -> list[str]:
    return [
        "    always @(posedge clk) begin",
        "        if (rst)",
        f"            acc <= {acc_bits}'sd0;",
        "        else if (en)",
        "            acc <= acc + product;",
        "    end",
        "",
        "endmodule",
    ]


def generate_precompute_bank(bits: int,
                             alphabet_set: AlphabetSet) -> str:
    """Standalone shared pre-computer bank (one output per alphabet > 1)."""
    lane = bits + 4
    lines = [
        f"// pre-computer bank: alphabets {alphabet_set} of a "
        f"{bits}-bit input",
        f"module precompute_bank_{bits}b_{len(alphabet_set)}a (",
        f"    input  wire signed [{bits - 1}:0] act,",
    ]
    ports = [f"    output wire signed [{lane - 1}:0] mult_{a}"
             for a in alphabet_set if a > 1]
    lines.append(",\n".join(ports))
    lines.append(");")
    for a in alphabet_set:
        if a == 1:
            continue
        # CSD-style shift-add expression for a*act
        terms = _csd_terms(a)
        expr = " + ".join(
            f"(act <<< {shift})" if sign > 0 else f"- (act <<< {shift})"
            for shift, sign in terms)
        lines.append(f"    assign mult_{a} = {expr};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _csd_terms(value: int) -> list[tuple[int, int]]:
    """CSD digits of *value* as (shift, sign) pairs, LSB first."""
    terms = []
    shift = 0
    while value:
        if value & 1:
            residue = -1 if (value & 3) == 3 else 1
            terms.append((shift, residue))
            value -= residue
        value >>= 1
        shift += 1
    return terms


def _lane_case(layout: QuartetLayout, quartet_index: int,
               alphabet_set: AlphabetSet, model: AlphabetSetMultiplier,
               lane_bits: int, bits: int) -> list[str]:
    """Case statement mapping a quartet value to its shifted alphabet."""
    width = layout.quartet_widths[quartet_index]
    q = f"q{quartet_index}"
    lane = f"lane{quartet_index}"
    lines = [f"    always @(*) begin", f"        case ({q})"]
    quartet_map = model._quartet_maps[width]
    for value in range(1 << width):
        realised = quartet_map[value]
        if realised is None:  # pragma: no cover - error policy not emitted
            raise ValueError("generate RTL with a non-error fallback")
        if realised == 0:
            rhs = f"{lane_bits}'sd0"
        else:
            alphabet, shift = decompose_quartet(realised, alphabet_set,
                                                width=width)
            source = "ext_act" if alphabet == 1 else f"mult_{alphabet}"
            rhs = f"{source} <<< {shift}" if shift else source
        lines.append(f"            {width}'d{value}: {lane} = {rhs};")
    lines.append(f"            default: {lane} = {lane_bits}'sd0;")
    lines.append("        endcase")
    lines.append("    end")
    return lines


def generate_asm_mac(bits: int, alphabet_set: AlphabetSet,
                     fallback: str = "nearest",
                     acc_guard_bits: int = 8) -> str:
    """Complete ASM (or MAN) MAC module for *bits*-bit operands.

    The generated logic: magnitude extraction, in-module alphabet bank,
    per-quartet select/shift (one combinational case per quartet, arms
    derived from the functional model under *fallback*), lane summation,
    sign restore, accumulate on ``en``.
    """
    layout = QuartetLayout(bits)
    model = AlphabetSetMultiplier(bits, alphabet_set, fallback=fallback)
    name = module_name(bits, Multiplier(alphabet_set))
    acc_bits = 2 * bits + acc_guard_bits
    lane_bits = 2 * bits
    mag_bits = bits - 1

    lines = [f"// generated by repro.rtl - {name}, alphabets "
             f"{alphabet_set}, fallback '{fallback}'"]
    lines += _header(name, bits, acc_bits)
    lines += [
        "",
        "    // magnitude of the weight (sign handled after the lanes)",
        f"    wire sign_w = weight[{bits - 1}];",
        f"    wire [{mag_bits - 1}:0] mag = sign_w ? "
        f"(~weight[{mag_bits - 1}:0] + 1'b1) : weight[{mag_bits - 1}:0];",
        f"    wire signed [{lane_bits - 1}:0] ext_act = act;",
    ]

    # quartet extraction
    for index, width in enumerate(layout.quartet_widths):
        low = layout.shift_of(index)
        high = low + width - 1
        lines.append(f"    wire [{width - 1}:0] q{index} = "
                     f"mag[{high}:{low}];")

    # alphabet bank (inline, shared across lanes)
    for a in alphabet_set:
        if a == 1:
            continue
        terms = _csd_terms(a)
        expr = " + ".join(
            f"(ext_act <<< {shift})" if sign > 0
            else f"- (ext_act <<< {shift})"
            for shift, sign in terms)
        lines.append(f"    wire signed [{lane_bits - 1}:0] mult_{a} "
                     f"= {expr};")

    # per-quartet select/shift lanes
    lines.append("")
    for index in range(layout.num_quartets):
        lines.append(f"    reg signed [{lane_bits - 1}:0] lane{index};")
    for index in range(layout.num_quartets):
        lines += _lane_case(layout, index, alphabet_set, model,
                            lane_bits, bits)

    # combine lanes with their quartet offsets, restore sign
    parts = [f"(lane{index} <<< {layout.shift_of(index)})"
             for index in range(layout.num_quartets)]
    lines += [
        "",
        f"    wire signed [{lane_bits - 1}:0] unsigned_product = "
        + " + ".join(parts) + ";",
        f"    wire signed [{lane_bits - 1}:0] product = "
        "sign_w ? -unsigned_product : unsigned_product;",
        "",
    ]
    lines += _accumulator(acc_bits)
    return "\n".join(lines) + "\n"


def generate_conventional_mac(bits: int, acc_guard_bits: int = 8) -> str:
    """Baseline MAC: a behavioural ``*`` the synthesis tool maps to an
    array multiplier."""
    name = module_name(bits, CONVENTIONAL)
    acc_bits = 2 * bits + acc_guard_bits
    lines = [f"// generated by repro.rtl - {name} (conventional multiplier)"]
    lines += _header(name, bits, acc_bits)
    lines += [
        "",
        f"    wire signed [{2 * bits - 1}:0] product = weight * act;",
        "",
    ]
    lines += _accumulator(acc_bits)
    return "\n".join(lines) + "\n"
