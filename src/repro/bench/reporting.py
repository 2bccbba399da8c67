"""Plain-text table rendering for benchmark output."""

from __future__ import annotations

from typing import Any, Sequence


def format_bytes(count: float) -> str:
    """Human-readable byte count (binary units)."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            if unit == "B":
                return f"{value:.0f} {unit}"
            return f"{value:.2f} {unit}"
        value /= 1024
    return f"{value:.2f} GiB"


def format_rate(bytes_per_second: float) -> str:
    """Human-readable data rate."""
    return f"{format_bytes(bytes_per_second)}/s"


def table_text(headers: Sequence[str], rows: Sequence[Sequence[Any]],
               title: str | None = None) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [
        [str(value) for value in row] for row in rows
    ]
    widths = [
        max(len(row[column]) for row in cells)
        for column in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(separator)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                title: str | None = None) -> None:
    print()
    print(table_text(headers, rows, title))
