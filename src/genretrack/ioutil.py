"""Small shared helpers for deterministic text I/O and timestamp parsing.

CSV tables are written whole rows at a time; ``%.17g`` prints what :func:`fmt` prints.
Numeric tables are read back by :func:`read_table`, which numpy's C tokenizer parses.
"""

from __future__ import annotations

import csv
import io
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

import numpy as np

__all__ = [
    "DAY_SECONDS", "fmt", "csv_cells", "write_table", "read_table", "parse_timestamp",
    "safe_filename",
]

DAY_SECONDS = 86400  # epoch seconds per UTC day


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


def read_table(
    path: str | Path, header: Sequence[str], what: str, labeled: bool = False
) -> tuple[list[str], np.ndarray]:
    """A CSV table's rows: (labels, values), the first column's exact text if ``labeled``.

    Blank lines are skipped.  ``csv`` checks the header and numpy's C tokenizer parses
    the rest as floats, which are those ``float()`` gives; a faulty row raises
    ``ValueError`` with ``path:line: <cause>``, found by one ``csv`` pass over the file.
    """
    header = list(header)
    with open(path, newline="", encoding="utf-8") as fh:
        got = next(csv.reader(fh), None)
        body = fh.read()
    if got is None:
        raise ValueError(f"{what} {path} is empty")
    if got != header:
        raise ValueError(
            f"{what} {path} columns do not match the vocabulary: "
            f"got {got[:4]}..., expected {header[:4]}..."
        )
    n = len(header) - labeled
    if not body.strip("\r\n"):  # loadtxt warns on a table with no rows
        return [], np.empty((0, n))
    dtype = np.dtype([("label", object), ("values", float, (n,))]) if labeled else float
    try:
        table = np.loadtxt(
            io.StringIO(body), dtype, delimiter=",", quotechar='"', comments=None, ndmin=2
        )
    except ValueError as exc:
        _raise_first_fault(path, len(header), labeled, str(exc))
    if labeled:
        return table["label"][:, 0].tolist(), np.ascontiguousarray(table["values"][:, 0])
    if table.shape[1] != n:  # every row has the same wrong number of fields
        _raise_first_fault(path, n, labeled, f"rows of {table.shape[1]} fields, expected {n}")
    return [], table


def _raise_first_fault(path: str | Path, n_fields: int, labeled: bool, error: str) -> NoReturn:
    """Raise the first faulty row's ``path:line: <cause>``, else ``path: <error>``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):  # skip blank lines
            where = f"{path}:{reader.line_num}"
            if len(row) != n_fields:
                raise ValueError(f"{where}: expected {n_fields} fields, got {len(row)}")
            for cell in row[labeled:]:
                text = cell.strip()  # the C parser reads no underscore and no non-ASCII digit
                try:
                    float(text if text.isascii() and "_" not in text else "?")
                except ValueError:
                    cause = f"could not convert string to float: {cell!r}"
                    raise ValueError(f"{where}: {cause}") from None
    raise ValueError(f"{path}: {error}")


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
