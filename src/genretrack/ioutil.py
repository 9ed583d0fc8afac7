"""Small shared helpers for deterministic text I/O and timestamp parsing.

Every CSV table is written by :func:`write_table`, column-wise, a bounded block of rows at a
time, each distinct float of a block formatted once as :func:`fmt` formats it.  Tables are
read back by :func:`read_rows`: numpy's C tokenizer parses chunks of rows streamed from the
file, and on a fault one ``csv`` pass names the faulty row.  The one exception is a plain
event log, which ``profiles.read_events`` reads from its bytes and hands to ``read_rows``
on any fault.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import chain, filterfalse, groupby, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "DAY_SECONDS", "fmt", "csv_cells", "write_table", "write_tables", "read_rows", "read_table",
    "parse_timestamp", "safe_filename",
]

DAY_SECONDS = 86400  # epoch seconds per UTC day
# numpy allocates a chunk's rows up front, so a chunk holds as many rows as fit this many
# bytes: 16384 of the event log's 32-byte rows, fewer of a wide numeric table.
_CHUNK_BYTES = 1 << 19
# write_table formats and writes about this many cells at a time.
_BLOCK_CELLS = 1 << 12
# csv's field size limit (131072 characters by default) while read_rows runs: any cell
# numpy reads, csv reads too when it looks for a faulty row.
_FIELD_LIMIT = (1 << 31) - 1
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


def write_table(path, header: Sequence[str], columns: Sequence, sizes=None) -> None:
    """Write ``header``, then row i of every column, to ``path``; or, given ``sizes``,
    to each path of ``path`` in turn, under its own header, its size of the next rows.

    A column is a float array, 1-D or with a cell per column, printed as ``fmt`` prints;
    an int array, printed in decimal; or (``csv_cells`` texts, int array of row codes).
    """
    columns = [c[:, None] if getattr(c, "ndim", 2) == 1 else c for c in columns]
    n = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    width = sum(1 if isinstance(c, tuple) else c.shape[1] for c in columns)
    step = max(1, _BLOCK_CELLS // width)
    rows = chain.from_iterable(_row_blocks(columns, n, step))
    for path, size in zip(*(([path], [n]) if sizes is None else (path, sizes))):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            for lo in range(0, size, step):
                fh.writelines(("\n".join(islice(rows, min(step, size - lo))), "\n"))


def write_tables(paths: Sequence, header: Sequence[str], parts: Sequence[Sequence]) -> None:
    """Write each part, a list of array columns as :func:`write_table` takes them, to its
    path; consecutive parts are stacked into one table, about a block of cells at a time."""
    sizes = [len(part[0]) for part in parts]
    width = sum(math.prod(c.shape[1:]) for c in parts[0]) if parts else 1
    blocks = np.cumsum(sizes, dtype=int) * width // _BLOCK_CELLS
    for _, group in groupby(zip(parts, paths, sizes, blocks), key=lambda item: item[3]):
        chosen, files, counts, _ = zip(*group)
        write_table(files, header, [np.concatenate(column) for column in zip(*chosen)], counts)


def _row_blocks(columns: Sequence, n: int, step: int) -> Iterator[list[str]]:
    """The ``n`` rows of ``columns``, ``step`` at a time.  A block formats each distinct
    float once, told apart by bit pattern so that ``-0.0`` is not ``0.0``, and reuses
    the text of one that the block before held too."""
    # The texts of the block before, sorted by bit pattern; at first just 0.0, printed "0".
    seen, seen_texts = np.zeros(1, dtype=np.int64), np.array(["0"], dtype=object)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        floats = [c[lo:hi] for c in columns if not isinstance(c, tuple) and c.dtype.kind == "f"]
        block = np.hstack([np.empty((hi - lo, 0)), *floats], dtype=float)
        bits = block.ravel().view(np.int64)
        # np.unique's work by the stable sort, which the commands already load: numpy's
        # default sort would map 0.5 MB more of its library into memory.
        order = bits.argsort(kind="stable")
        new = np.diff(bits[order], prepend=~bits[order[:1]]) != 0
        distinct, inverse = bits[order][new], np.empty_like(order)
        inverse[order] = np.cumsum(new) - 1
        at = np.minimum(np.searchsorted(seen, distinct), seen.size - 1)
        fresh, texts = seen[at] != distinct, seen_texts[at]
        values = distinct[fresh].view(float).tolist()
        texts[fresh] = ((",%.17g" * len(values)) % tuple(values)).split(",")[1:]
        seen, seen_texts = distinct, texts
        cells = iter(texts[inverse.reshape(block.shape)].T.tolist())
        lists = []
        for c in columns:
            if isinstance(c, tuple):
                lists.append(list(map(c[0].__getitem__, c[1][lo:hi].tolist())))
            elif c.dtype.kind == "f":
                lists.extend(islice(cells, c.shape[1]))
            else:
                lists.append(list(map(str, c[lo:hi, 0].tolist())))
        yield list(map(",".join, zip(*lists)))


@contextmanager
def read_rows(
    path: str | Path, header: Sequence[str], what: str, dtype: np.dtype, check: Callable
) -> Iterator[Iterator[np.ndarray]]:
    r"""The rows of the ``what`` table at ``path`` as arrays of ``dtype``, a chunk at a time.

    The header's cells, stripped, must be ``header``.  numpy's C tokenizer parses chunks
    of at most ``_CHUNK_BYTES`` straight from the file, opened with ``newline=""``, so a
    row may end in ``\n``, ``\r\n`` or a bare ``\r``.  Blank lines, even one in a quoted
    cell, are dropped: numpy warns of one under ``max_rows``.  A ``ValueError`` raised in
    the ``with`` block, by numpy, the UTF-8 decoder or the caller, makes one ``csv`` pass
    that raises ``path:line: <cause>`` for the first row holding a byte that is not UTF-8,
    with other than ``len(header)`` cells or on which ``check`` raises
    ``ValueError(cause)``, else ``path: <error>``.  ``csv``'s field size limit is lifted
    until the block ends.
    """
    header = list(header)
    limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                got = next(csv.reader(fh), None)
                if got is None or [cell.strip() for cell in got] != header:
                    raise ValueError("no header or a wrong one")  # _first_fault words it
                rows = filterfalse(_BLANK_LINES.__contains__, fh)
                max_rows = max(1, _CHUNK_BYTES // dtype.itemsize)
                yield (  # each chunk starts at the next line left
                    np.loadtxt(chain((line,), rows), dtype, max_rows=max_rows, ndmin=1, **_LOADTXT)
                    for line in rows
                )
            except ValueError as error:
                raise _first_fault(path, header, what, check, error) from None
    finally:
        csv.field_size_limit(limit)


def _first_fault(
    path: str | Path, header: list[str], what: str, check: Callable, error: ValueError
) -> ValueError:
    """The error :func:`read_rows` raises: the header's fault, else the first faulty row's,
    else ``path: <error>``.  The file is read again, a byte that is not UTF-8 escaped."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None:
            return ValueError(f"{what} {path} is empty")
        if cause := _undecodable(got):
            return ValueError(f"{path}:{reader.line_num}: {cause}")
        if [cell.strip() for cell in got] != header:
            return ValueError(f"{what} {path} has header {got!r}, expected {header!r}")
        for row in filter(None, reader):
            where = f"{path}:{reader.line_num}"
            if cause := _undecodable(row):
                return ValueError(f"{where}: {cause}")
            if len(row) != len(header):
                return ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
            try:
                check(row)
            except ValueError as cause:
                return ValueError(f"{where}: {cause}")
    return ValueError(f"{path}: {error}")


# The characters by which errors="surrogateescape" stands in for the bytes 0x80-0xff
# that do not decode as UTF-8.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _undecodable(cells: Iterable[str]) -> str:
    """The cause naming the first byte escaped in ``cells``, else ''."""
    found = _ESCAPED_BYTE.search("\0".join(cells))
    return f"byte 0x{ord(found[0]) - 0xDC00:02x} is not UTF-8" if found else ""


def _text_lines(path: str | Path) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, as ``str.splitlines`` splits them.

    A byte that is not UTF-8 raises ``ValueError`` naming ``path:line`` and the byte.
    """
    lines = Path(path).read_text(encoding="utf-8", errors="surrogateescape").splitlines()
    for number, line in enumerate(lines, 1):
        if cause := _undecodable([line]):
            raise ValueError(f"{path}:{number}: {cause}")
    return lines


def read_table(
    path: str | Path, header: Sequence[str], what: str, labeled: bool = False
) -> tuple[list[str], np.ndarray]:
    """A CSV table's rows: (labels, values), the first column's exact text if ``labeled``.

    Read by :func:`read_rows`; the floats are those ``float()`` gives.  Labels are user
    ids, each distinct one checked once.
    """
    n = len(header) - labeled
    dtype = np.dtype([("label", object)] * labeled + [("values", float, (n,))])

    def check_row(row: list[str]) -> None:
        if labeled:
            _check_user_id(row[0])
        for cell in row[labeled:]:
            _parse_float(cell)

    labels: list[str] = []
    values = [np.empty((0, n))]
    with read_rows(path, header, what, dtype, check_row) as chunks:
        for chunk in chunks:
            labels += chunk["label"].tolist() if labeled else []
            values.append(chunk["values"])
        for label in dict.fromkeys(labels):
            _check_user_id(label)
    return labels, np.concatenate(values)


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


def _check_user_id(user_id: str) -> str:
    """``user_id`` if it can be written and read back, else ValueError naming it."""
    if not user_id:
        raise ValueError("user id must be non-empty")
    if _UNWRITABLE_ID.search(user_id):
        raise ValueError(f"user id {user_id!r} holds a control character or line separator")
    return user_id


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
