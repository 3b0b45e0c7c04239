"""Hardware deep-dive: stage-level cost reports and the Fig. 8/9/10 tables.

Prints the gate-level stage breakdown of every neuron design (what the
RTL + synthesis flow of the paper would report), then the normalised
power/area comparisons and the per-application engine energy.

Run:  python examples/hardware_report.py
"""

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4
from repro.asm.multiplier import Multiplier
from repro.experiments import EXPERIMENTS, format_energy_table
from repro.experiments.power_area import (
    format_hardware_table,
    run_figure8,
    run_figure10,
)
from repro.hardware import make_neuron
from repro.pipeline import run_pipeline


def main() -> None:
    print("=== stage-level design reports (iso-speed) ===\n")
    for bits in (8, 12):
        for aset in (None, ALPHA_4, ALPHA_2, ALPHA_1):
            design = make_neuron(bits, Multiplier(aset))
            print(design.report())
            print()

    print("=== Fig. 8: normalised power ===")
    print(format_hardware_table(run_figure8(), ""))
    print()
    print("=== Fig. 10: normalised area ===")
    print(format_hardware_table(run_figure10(), ""))
    print()
    print("=== Fig. 9: per-inference energy (all five applications) ===")
    reports = [run_pipeline(config)
               for config in EXPERIMENTS["fig9"].configs]
    print(format_energy_table(reports, ""))


if __name__ == "__main__":
    main()
