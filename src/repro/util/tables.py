"""Plain-text tables and durations for the benchmarks and examples.

The benchmarks print results in the same rows the paper reports; these
helpers keep that output readable in a terminal.
"""

from __future__ import annotations

from collections.abc import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_fmt: str = "{:.3f}",
) -> str:
    """Render an aligned ASCII table.

    Floats are formatted with ``float_fmt``; everything else with ``str``.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(sep)
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def format_time(seconds: float) -> str:
    """Human-readable duration (µs/ms/s)."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds:.4f} s"
