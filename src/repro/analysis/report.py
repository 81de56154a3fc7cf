"""Plain-text tabular reports for the benchmark harness.

Every experiment prints its result through these helpers so that the rows
and series the paper reports can be regenerated (and eyeballed) from the
terminal without plotting.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Fixed-width table with a header rule."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def bytes_human(n: float) -> str:
    """1536 -> '1.5 kB' (binary units, as the paper's kB/MB axes)."""
    for unit, factor in (("GB", 1 << 30), ("MB", 1 << 20), ("kB", 1 << 10)):
        if abs(n) >= factor:
            return f"{n / factor:.1f} {unit}"
    return f"{n:.0f} B"
