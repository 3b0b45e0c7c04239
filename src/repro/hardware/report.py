"""Plain-text report tables for hardware comparisons.

Every experiment renders through these helpers so that ``repro
experiment``, benchmark output and example scripts all show the same
table shapes the paper uses (values normalised to the conventional design).
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table", "normalized_series"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render an aligned monospace table (floats shown to 3 decimals).

    >>> out = format_table(["a", "b"], [[1, 2.5]], title="t")
    >>> print("\\n".join(line.rstrip() for line in out.splitlines()))
    t
    a  b
    -  -----
    1  2.500
    """
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def normalized_series(values: Sequence[float],
                      baseline: float | None = None) -> list[float]:
    """Normalise *values* to *baseline* (default: the first entry).

    >>> normalized_series([4.0, 2.0, 1.0])
    [1.0, 0.5, 0.25]
    """
    if baseline is None:
        if not values:
            raise ValueError("cannot normalise an empty series")
        baseline = values[0]
    if baseline == 0:
        raise ValueError("baseline must be non-zero")
    return [value / baseline for value in values]
