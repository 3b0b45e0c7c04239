"""Emit the Verilog RTL the paper's flow would synthesise.

Writes one ``.v`` file per datapath configuration into ``rtl_out/`` —
conventional, 4/2-alphabet ASMs and the MAN at both word widths, plus the
shared pre-computer banks.

Run:  python examples/emit_rtl.py [--out rtl_out]
"""

import argparse
import os

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.rtl import (
    generate_asm_mac,
    generate_conventional_mac,
    generate_precompute_bank,
    module_name,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="rtl_out")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    written = []
    for bits in (8, 12):
        sources = {module_name(bits, CONVENTIONAL):
                   generate_conventional_mac(bits)}
        for aset in (ALPHA_4, ALPHA_2, ALPHA_1):
            sources[module_name(bits, Multiplier(aset))] = generate_asm_mac(
                bits, aset, fallback="nearest")
        for aset in (ALPHA_4, ALPHA_2):
            name = f"precompute_bank_{bits}b_{len(aset)}a"
            sources[name] = generate_precompute_bank(bits, aset)
        for name, source in sources.items():
            path = os.path.join(args.out, f"{name}.v")
            with open(path, "w") as handle:
                handle.write(source)
            written.append((path, len(source.splitlines())))

    print(f"wrote {len(written)} Verilog modules:")
    for path, lines in written:
        print(f"  {path}  ({lines} lines)")
    print("\npreview of the 8-bit MAN datapath:")
    print(generate_asm_mac(8, ALPHA_1, fallback="nearest"))


if __name__ == "__main__":
    main()
