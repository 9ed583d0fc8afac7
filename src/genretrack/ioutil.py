"""Small shared helpers for deterministic text output and timestamp parsing.

CSV tables are written whole rows at a time; ``%.17g`` prints what :func:`fmt` prints.
"""

from __future__ import annotations

import csv
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["fmt", "csv_cells", "write_table", "parse_timestamp", "safe_filename"]


def fmt(x: float) -> str:
    """Format a float at 17 significant digits so files round-trip exactly."""
    return f"{float(x):.17g}"


class _Echo:
    """A file whose ``write`` returns its argument, so ``csv.writer.writerow`` returns the line."""

    def write(self, line: str) -> str:
        return line


def csv_cells(values: Iterable[str]) -> list[str]:
    """Each string as ``csv.writer`` writes it as one cell of a row, quoted only if it must be."""
    writer = csv.writer(_Echo(), lineterminator="\n")
    # Two cells to a row: csv quotes a lone empty cell.
    return [writer.writerow([value, ""])[:-2] for value in values]


def write_table(path: str | Path, header: Sequence[str], row_format: str, rows: Iterable) -> None:
    """Write ``header``, then ``row_format % row`` per row; strings come quoted by csv_cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(row_format % row for row in rows)


def parse_timestamp(raw: str) -> float:
    """Parse epoch seconds (plain number) or an ISO-8601 datetime to epoch seconds.

    Naive ISO datetimes are taken as UTC.
    """
    text = raw.strip()
    try:
        return float(text)
    except ValueError:
        pass
    iso = text.replace("Z", "+00:00")
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError:
        raise ValueError(f"unparseable timestamp: {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def safe_filename(name: str) -> str:
    """Map an arbitrary identifier to a filesystem-safe token."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)
