"""Hardware comparisons: Fig. 8 (power) and Fig. 10 (area).

Pure model evaluations — no training involved.  Values are normalised to
the conventional neuron of the same word width, exactly like the paper's
bar charts, and the paper's reported values ride along for side-by-side
reporting in the printed tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4, AlphabetSet
from repro.asm.multiplier import Multiplier
from repro.hardware.neuron import NeuronConfig, make_neuron
from repro.hardware.report import format_table
from repro.hardware.technology import IBM45, TechnologyModel

__all__ = ["run_figure8", "run_figure10", "run_hardware_grid",
           "format_hardware_table", "PAPER_VALUES"]

#: Paper-reported normalised values (approximate, read off Figs. 8/10 and
#: the text of §VI.B/§VI.C/§VI.D).  ``None`` where the paper gives no number.
PAPER_VALUES: dict[tuple[int, int, str], float | None] = {
    (8, 4, "power"): 0.92, (8, 2, "power"): 0.74, (8, 1, "power"): 0.65,
    (12, 4, "power"): None, (12, 2, "power"): 0.79, (12, 1, "power"): 0.40,
    (8, 4, "area"): 0.95, (8, 2, "area"): 0.75, (8, 1, "area"): 0.63,
    (12, 4, "area"): None, (12, 2, "area"): 0.81, (12, 1, "area"): 0.38,
}


@dataclass(frozen=True)
class HardwareRow:
    """One bar of Fig. 8 or Fig. 10."""

    bits: int
    num_alphabets: int | None
    metric: str                   # "power" or "area"
    normalized: float
    paper: float | None

    @property
    def label(self) -> str:
        if self.num_alphabets is None:
            return "conventional"
        sets = {1: ALPHA_1, 2: ALPHA_2, 4: ALPHA_4}
        return f"{self.num_alphabets} {sets[self.num_alphabets]}"


def run_hardware_grid(metric: str, bits_list: tuple[int, ...] = (8, 12),
                      tech: TechnologyModel = IBM45,
                      config: NeuronConfig | None = None,
                      ) -> list[HardwareRow]:
    """Normalised *metric* ("power" or "area") for every design."""
    if metric not in ("power", "area"):
        raise ValueError(f"metric must be 'power' or 'area', got {metric!r}")
    sets: list[tuple[int, AlphabetSet]] = [
        (4, ALPHA_4), (2, ALPHA_2), (1, ALPHA_1)]
    rows = []
    for bits in bits_list:
        conv = make_neuron(bits, tech=tech, config=config).cost()
        rows.append(HardwareRow(bits=bits, num_alphabets=None,
                                metric=metric, normalized=1.0, paper=1.0))
        for count, aset in sets:
            cost = make_neuron(bits, Multiplier(aset), tech=tech,
                               config=config).cost()
            rows.append(HardwareRow(
                bits=bits, num_alphabets=count, metric=metric,
                normalized=cost.normalized_to(conv)[metric],
                paper=PAPER_VALUES.get((bits, count, metric)),
            ))
    return rows


def run_figure8(tech: TechnologyModel = IBM45,
                config: NeuronConfig | None = None) -> list[HardwareRow]:
    """Fig. 8: normalised neuron power at iso-speed."""
    return run_hardware_grid("power", tech=tech, config=config)


def run_figure10(tech: TechnologyModel = IBM45,
                 config: NeuronConfig | None = None) -> list[HardwareRow]:
    """Fig. 10: normalised neuron area at iso-speed."""
    return run_hardware_grid("area", tech=tech, config=config)


def format_hardware_table(rows: list[HardwareRow], title: str) -> str:
    table_rows = []
    for row in rows:
        table_rows.append([
            f"{row.bits} bits",
            row.label,
            f"{row.normalized:.3f}",
            "--" if row.paper is None else f"{row.paper:.2f}",
        ])
    metric = rows[0].metric if rows else "?"
    return format_table(
        ["Neuron size", "Design", f"normalized {metric} (model)",
         "paper"],
        table_rows, title=title)
