"""Small shared helpers for deterministic text I/O and timestamp parsing.

CSV tables are written whole rows at a time; ``%.17g`` prints what :func:`fmt` prints.
Tables are read back by numpy's C tokenizer (:func:`read_table` for the numeric ones; the
event log in chunks streamed from the file); one ``csv`` pass then names a faulty row.
"""

from __future__ import annotations

import csv
import io
import re
from datetime import datetime, timezone
from itertools import chain, filterfalse
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

__all__ = [
    "DAY_SECONDS", "fmt", "csv_cells", "write_table", "read_table", "parse_timestamp",
    "safe_filename",
]

DAY_SECONDS = 86400  # epoch seconds per UTC day
# numpy allocates a chunk's rows up front: 16384 rows of the event log take 512 KiB, but
# of a wide numeric table many MiB, so read_table parses its (smaller) tables whole.
_CHUNK_ROWS = 16384
_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})  # the lines numpy skips as holding no row
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None)  # CSV as csv.writer writes it


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
    the rest as floats, which are those ``float()`` gives.  Labels are user ids, each
    distinct one checked once.  A faulty row raises ``ValueError`` with
    ``path:line: <cause>``, found by one ``csv`` pass over the file.
    """
    header = list(header)
    with open(path, newline="", encoding="utf-8") as fh:
        got = next(csv.reader(fh), None)
        body = fh.read()  # lines end at "\n" alone, so numpy refuses a row ended by a bare "\r"
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
    dtype = np.dtype([("label", object)] * labeled + [("values", float, (n,))])

    def check_row(row: list[str]) -> None:
        if labeled:
            _check_user_id(row[0])
        for cell in row[labeled:]:
            _parse_float(cell)

    try:
        table = np.loadtxt(io.StringIO(body), dtype, ndmin=1, **_LOADTXT)
        labels = table["label"].tolist() if labeled else []
        for label in dict.fromkeys(labels):
            _check_user_id(label)
    except ValueError as exc:
        _raise_first_fault(path, len(header), check_row, str(exc))
    return labels, np.ascontiguousarray(table["values"])


def _read_chunks(lines: Iterable[str], dtype: np.dtype) -> Iterator[np.ndarray]:
    """The CSV rows of ``lines`` (an open file, say) as arrays of ``_CHUNK_ROWS`` rows or fewer.

    numpy's C tokenizer parses each chunk straight from ``lines``, so the text of one
    chunk at most is held at once.  Blank lines, even one in a quoted cell, are dropped
    first: numpy warns of one under ``max_rows``.  A row numpy cannot parse raises its
    ``ValueError``.
    """
    rows = filterfalse(_BLANK_LINES.__contains__, lines)
    for line in rows:  # each chunk starts at the next line left
        yield np.loadtxt(chain((line,), rows), dtype, max_rows=_CHUNK_ROWS, ndmin=1, **_LOADTXT)


def _raise_first_fault(path: str | Path, n_fields: int, check: Callable, error: str) -> NoReturn:
    """Raise the first faulty row's ``path:line: <cause>``, else ``path: <error>``.

    One ``csv`` pass reads the rows after the header.  A row is faulty if it has not
    ``n_fields`` cells or if ``check`` raises ``ValueError(cause)`` on it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):
            where = f"{path}:{reader.line_num}"
            if len(row) != n_fields:
                raise ValueError(f"{where}: expected {n_fields} fields, got {len(row)}")
            try:
                check(row)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    raise ValueError(f"{path}: {error}")


def _parse_float(cell: str) -> float:
    """``float(cell)``, refusing as numpy's C parser does an underscore or a non-ASCII digit."""
    text = cell.strip()
    try:
        return float(text if text.isascii() and "_" not in text else "?")
    except ValueError:
        raise ValueError(f"could not convert string to float: {cell!r}") from None


# C0 and C1 controls and the Unicode line and paragraph separators: in a user id they
# would split or hide a line of summary.txt and of any text view of the CSV tables.
_UNWRITABLE_ID = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def _check_user_id(user_id: str) -> None:
    if not user_id:
        raise ValueError("event user_id must be non-empty")
    if _UNWRITABLE_ID.search(user_id):
        raise ValueError(f"user id {user_id!r} holds a control character or line separator")


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
