"""Small shared helpers for deterministic text I/O and timestamp parsing.

Every CSV table is written by :func:`write_table`, column-wise, a bounded block of rows at a
time made into one ``bytes`` object, its floats printed by a numpy kernel exactly as the
scalar :func:`fmt` prints them.  Tables are read back by :func:`read_rows`: numpy's C
tokenizer parses chunks of rows streamed from the file, and on a fault one ``csv`` pass
names the faulty row.  The one exception is a plain event log, which
``profiles.read_events`` reads from its bytes and hands to ``read_rows`` on any fault.
"""

from __future__ import annotations

import csv
import re
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import chain, filterfalse
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "DAY_SECONDS", "fmt", "csv_cells", "write_table", "read_rows", "read_table", "parse_timestamp",
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
    an int array, printed in decimal; or (values, int array of row codes), the values
    ``csv_cells`` texts or a float array, each value printed once.
    """
    columns = [(_value_slots(c[0]), c[1]) if isinstance(c, tuple) else c[:, None] if c.ndim == 1
               else c for c in columns]
    n = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    # A block holds about _BLOCK_CELLS cells, a text counting once per float slot it spans.
    width = sum(-(-c[0].shape[1] // _SLOT) if isinstance(c, tuple) else c.shape[1] for c in columns)
    step, line = max(1, _BLOCK_CELLS // width), csv.writer(_Echo(), lineterminator="\n").writerow(header)
    blocks = (_row_block(columns, lo, min(lo + step, n)) for lo in range(0, n, step))
    text, ends = b"", [0]  # the block being written, and where each of its rows left ends
    for path, size in zip(*(([path], [n]) if sizes is None else (path, sizes))):
        with open(path, "wb") as fh:
            fh.write(line.encode())
            while size:
                if len(ends) == 1:
                    text, ends = next(blocks)
                rows = min(size, len(ends) - 1)
                fh.write(text[ends[0] : ends[rows]])
                ends, size = ends[rows:], size - rows


# Every cell is formatted into a slot, a fixed-width run of bytes ending in its separator,
# that holds its text and 0xFF, a byte no UTF-8 text holds, in the places it leaves out.
# A float's slot: a sign, "0.000", then digit k at 6 + 2k, each followed by ".", the last
# by the separator.  The bytes it drops are _DROPPED[code]'s, the code (sign * 21 + e + 4)
# * 17 + s - 1 for exponent e in [-4, 16] and s significant digits, else 714 + len(text).
_DROP, _SLOT = 0xFF, 40


def _row_block(columns: Sequence, lo: int, hi: int) -> tuple[memoryview, list[int]]:
    """Rows ``lo`` to ``hi`` of ``columns``, each line ended, as UTF-8 bytes, and the offset
    of each row's start and of the last row's end: the rows of slots, but the 0xFF bytes."""
    floats = [c[lo:hi] for c in columns if not isinstance(c, tuple) and c.dtype.kind == "f"]
    if floats:
        floats = _float_slots(np.concatenate(floats, axis=1, dtype=float).ravel()).reshape(hi - lo, -1)
    parts, at = [], 0
    for c in columns:
        if isinstance(c, tuple):
            parts.append(c[0].take(c[1][lo:hi], axis=0))
        elif c.dtype.kind == "f":
            parts.append(floats[:, at : at + c.shape[1] * _SLOT])
            at += c.shape[1] * _SLOT
        else:
            parts.append(_value_slots(list(map(str, c[lo:hi].ravel().tolist()))).reshape(hi - lo, -1))
    slots = np.concatenate(parts, axis=1)
    slots[:, -1] = ord("\n")
    keep = slots != _DROP
    ends = keep.view(np.uint8).sum(axis=1, dtype=np.uint32).cumsum()  # faster than bool sums
    return memoryview(slots.ravel().compress(keep.ravel())), [0, *ends.tolist()]


def _value_slots(values) -> np.ndarray:
    """The slots of a float array, or of ``csv_cells`` texts, these as wide as the longest
    text and a separator."""
    if isinstance(values, np.ndarray):
        return _float_slots(values)
    texts = [text.encode() for text in values]
    sizes = np.array([len(text) for text in texts], dtype=int)
    width = sizes.max(initial=0) + 1
    slots = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    slots[np.arange(width) >= sizes[:, None]] = _DROP
    slots[:, -1] = ord(",")
    return slots


def _dropped() -> np.ndarray:
    pos = np.arange(_SLOT)
    sign, e, s = (a[..., None] for a in np.ix_([0, 1], np.arange(-4, 17), np.arange(1, 18)))
    prefix = (pos >= 1 - sign) & (pos < np.where(e < 0, 2 - e, 1))
    digits = (pos >= 6) & (pos % 2 == 0) & (pos < 6 + 2 * np.maximum(s, e + 1))
    point = (pos == 7 + 2 * e) & (s > e + 1) & (e >= 0)
    keep = np.vstack([(prefix | digits | point).reshape(-1, _SLOT), pos < np.arange(25)[:, None]])
    return np.where(keep | (pos == _SLOT - 1), 0, _DROP).astype(np.uint8).view(np.uint64)


_DROPPED = _dropped()
# float("1e-5") ... float("1e-1") lie above the powers they round, and 10**0 ... 10**21 are
# doubles, so _TENS[k + 5] is the least double not below 10**k.
_TENS = np.array([float(f"1e{k}") for k in range(-5, 22)])
# Each of 0..9999 as its four digits, each followed by ".", read as a little-endian word.
_DIGITS = sum(np.arange(10, dtype=np.uint64).reshape((-1,) + (1,) * (3 - k)) << np.uint64(16 * k)
              for k in range(4)).ravel() + np.uint64(int.from_bytes(b"0.0.0.0.", "little"))
# A slot's first word: "-0.000" and digit 0 (0 to 9) followed by ".".
_HEADS = int.from_bytes(b"-0.000\0.", "little") + (np.arange(48, 58, dtype=np.uint64) << 48)


def _float_slots(x: np.ndarray) -> np.ndarray:
    """The slots of the floats ``x``, each holding ``fmt(x[i])`` and a separator.  For an
    exponent e in [-4, 16], the 17 digits are the integer nearest |x| * 10**(16 - e), got
    exactly as hi + lo by Dekker's product: hi >= 1e16 > 2**53 is an even integer, so
    hi + rint(lo) rounds half to even, as % does.  NaN, infinities and other e go to %."""
    sign, a = np.signbit(x), np.abs(x)
    zero, near = a == 0, (a >= 1e-5) & (a < 1e17)  # near: e in [-5, 16]
    a = np.where(near, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)  # one off, perhaps, next to a power of ten
    e -= a < _TENS.take(e + 5, mode="clip")
    e += a >= _TENS.take(e + 6, mode="clip")
    b = _TENS.take(21 - e)
    ta, tb = a * 134217729.0, b * 134217729.0  # split at 2**27 + 1: halves of 26 bits
    ah, bh = ta - (ta - a), tb - (tb - b)
    hi, al, bl = a * b, a - ah, b - bh
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = digits == 10**17  # rounded up into the next decade
    e, digits = e + carry, np.where(carry, 10**16, digits)
    first = digits // 10**16
    rest = digits - first * 10**16
    top = rest // 10**8  # % and divmod take twice as long as // on int64
    halves = np.stack([top, rest - top * 10**8], axis=1)
    top = halves // 10**4
    words = np.empty((x.size, 5), np.uint64)
    words[:, 0] = _HEADS.take(first)
    words[:, 1:] = _DIGITS.take(np.stack([top, halves - top * 10**4], axis=2).reshape(-1, 4))
    slots = words.view(np.uint8)
    code = sign * 357 + e * 17 + 84 - np.argmax(slots[:, 38:5:-2] != ord("0"), axis=1)
    slots[zero, 6], slots[:, -1] = ord("0"), ord(",")
    (odd,) = np.nonzero(~((near & (e >= -4) & (e <= 16)) | zero))
    if odd.size:
        texts = ((",%.17g" * odd.size) % tuple(x[odd].tolist())).encode().split(b",")[1:]
        slots[odd, :24] = np.array(texts, "S24").view(np.uint8).reshape(-1, 24)
        code[odd] = 714 + np.array(list(map(len, texts)))
    words |= _DROPPED.take(code, axis=0)
    return slots


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
    path: str | Path, header: Sequence[str], what: str, labeled: bool = False,
    valid: Callable = lambda labels, values: True, check_row: Callable = lambda row: None,
) -> tuple[list[str], np.ndarray]:
    """A CSV table's rows: (labels, values), the first column's exact text if ``labeled``.

    Read by :func:`read_rows`; the floats are those ``float()`` gives, and must be finite.
    Labels are user ids, each distinct one checked once.  If ``valid(labels, values)`` is
    false or a value is not finite, the fault pass runs ``check_row`` on each row whose
    cells parse, in file order, then checks its cells are finite, and names the
    ``path:line`` of the first row that fails (``<column> must be finite, got <cell>``).
    """
    n = len(header) - labeled
    dtype = np.dtype([("label", object)] * labeled + [("values", float, (n,))])

    def check_cells(row: list[str]) -> None:
        if labeled:
            _check_user_id(row[0])
        values = [_parse_float(cell) for cell in row[labeled:]]
        check_row(row)
        for name, cell, value in zip(header[labeled:], row[labeled:], values):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {cell.strip()}")

    labels: list[str] = []
    values = [np.empty((0, n))]
    with read_rows(path, header, what, dtype, check_cells) as chunks:
        for chunk in chunks:
            labels += chunk["label"].tolist() if labeled else []
            values.append(chunk["values"])
        for label in dict.fromkeys(labels):
            _check_user_id(label)
        if not (valid(labels, table := np.concatenate(values)) and np.isfinite(table).all()):
            raise ValueError(f"a row of {what} {path} is refused")  # _first_fault words it
    return labels, table


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
