import csv
import decimal
import io
import math
import re
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genretrack import ioutil
from genretrack.ioutil import (
    csv_cells, fmt, parse_timestamp, read_table, write_table
)
from properties import reference_write_table


class TestFmt:
    def test_round_trips_float64_exactly(self):
        rng = np.random.default_rng(0)
        samples = np.concatenate(
            [
                rng.random(200),
                rng.normal(scale=1e12, size=200),
                rng.normal(scale=1e-12, size=200),
                np.array([0.0, 1.0, -1.0, 0.1, 1e300, 5e-324]),
            ]
        )
        for x in samples:
            assert float(fmt(float(x))) == float(x)

    def test_plain_integers_stay_short(self):
        assert fmt(3.0) == "3"
        assert fmt(-2.0) == "-2"


    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072009e-308)
    def test_row_format_prints_what_fmt_prints(self, x):
        assert "%.17g" % x == fmt(x)


class TestFloatKernel:
    """The kernel behind write_table prints every double as '%.17g' does."""

    RNG_SEED = 20240611

    def assert_prints_as_percent(self, x):
        x = np.asarray(x, dtype=float)
        slots = ioutil._float_slots(x).ravel()
        got, want = slots[slots != ioutil._DROP].tobytes().decode(), "%.17g," * x.size % tuple(x.tolist())
        if got != want:  # name the first values printed otherwise
            pairs = zip(x.tolist(), got.split(","), want.split(","))
            pytest.fail(repr([pair for pair in pairs if pair[1] != pair[2]][:5]))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(self.RNG_SEED)
        raw = rng.integers(0, 2**64, size=1 << 19, dtype=np.uint64)
        # As many again with the exponent field set to put |x| in [1e-6, 1e18): the
        # kernel's own range and a decade either side.
        near = rng.integers(0, 2**64, size=1 << 19, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
        near |= rng.integers(1003, 1083, size=near.size, dtype=np.uint64) << np.uint64(52)
        self.assert_prints_as_percent(np.concatenate([raw, near]).view(float))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
        x = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        self.assert_prints_as_percent(np.concatenate([x, -x]))

    @pytest.mark.parametrize("s", range(1, 21))
    def test_exact_ties_at_the_seventeenth_digit(self, s):
        # m * 2**-(s+1), m odd, has s + 1 decimals, the last a 5: with 18 significant
        # digits it lies halfway between two 17-digit decimals.
        lo, hi = (2 ** (s + 1) * 10**16 // 10**s, 2 ** (s + 1) * 10**17 // 10**s)
        m = np.random.default_rng([self.RNG_SEED, s]).integers(lo // 2, min(hi, 2**53) // 2, 2000) * 2 + 1
        x = np.ldexp(m.astype(float), -(s + 1))
        for value in x[:20].tolist():
            digits = decimal.Decimal(value).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        self.assert_prints_as_percent(np.concatenate([x, -x]))

    def test_edges(self):
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(float)
        self.assert_prints_as_percent([
            9.9999999999999999e-5, 99999999999999999.0, 1e-4, 1e16, 1e17,
            0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, *nans,
        ])


def csv_writer_line(row):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(row)
    return buffer.getvalue()


AWKWARD = ["plain", "", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " edge ", "Zoë;ü", "'"]


class TestCsvCells:
    @pytest.mark.parametrize("value", AWKWARD)
    def test_cell_is_what_csv_writer_writes(self, value):
        (cell,) = csv_cells([value])
        for row in ([value, "x"], ["x", value], ["x", value, "y"]):
            assert ",".join(cell if v == value else v for v in row) + "\n" == csv_writer_line(row)

    @given(st.lists(st.text(), min_size=2, max_size=4))
    def test_any_row_of_text(self, row):
        assert ",".join(csv_cells(row)) + "\n" == csv_writer_line(row)


def text_column(texts):
    """A write_table text column giving each of ``texts`` to one row, in order."""
    return csv_cells(texts), np.arange(len(texts))


class TestWriteTable:
    def test_header_then_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ["user_id", "a,b", 'q"uote']
        write_table(path, header, [text_column(["u,1", "é"]), np.array([3, 4]), np.array([-0.0, 0.1])])
        expected = csv_writer_line(header)
        expected += csv_writer_line(["u,1", 3, fmt(-0.0)]) + csv_writer_line(["é", 4, fmt(0.1)])
        assert path.read_bytes() == expected.encode("utf-8")

    def test_no_rows(self, tmp_path):
        write_table(tmp_path / "t.csv", ["a", "b"], [text_column([]), text_column([])])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "a,b\n"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bytes_equal_the_row_at_a_time_reference(self, tmp_path_factory, data):
        """Repeats, 1-ulp neighbours, signed zeros, subnormals, extremes, NaN payloads;
        int, 1-D and 2-D float columns; any row count about block boundaries; files split."""
        pool = data.draw(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)), min_size=1, max_size=6))
        pool += [math.nextafter(x, math.inf) for x in pool]
        block = data.draw(st.sampled_from([1, 2, 3, 7, 16, ioutil._BLOCK_CELLS]))
        n, k = data.draw(st.integers(0, 30)), data.draw(st.integers(0, 3))
        floats = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n * (k + 1), max_size=n * (k + 1))))
        floats = floats.reshape(n, k + 1)
        ints = np.array(data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)), dtype=np.int64)
        texts = csv_cells(data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=4)))
        codes = np.array(data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=n, max_size=n)), dtype=np.intp)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
        sizes = np.diff([0, *cuts, n]).tolist()

        folder = tmp_path_factory.mktemp("tables")
        header = ["user_id", "i", "x", *(f"y{j}" for j in range(k))]
        columns = [(texts, codes), ints, floats[:, 0].copy(), floats[:, 1:].copy()]
        paths = [folder / f"new{j}.csv" for j in range(len(sizes))]
        with patch.object(ioutil, "_BLOCK_CELLS", block):
            write_table(folder / "new.csv", header, columns)
            write_table(paths, header, columns, sizes)
        rows = [(texts[c], i, *x) for c, i, x in zip(codes.tolist(), ints.tolist(), floats.tolist())]
        row_format = "%s,%d" + ",%.17g" * (k + 1) + "\n"
        reference_write_table(folder / "ref.csv", header, row_format, rows)
        assert (folder / "new.csv").read_bytes() == (folder / "ref.csv").read_bytes()
        for path, lo, size in zip(paths, np.cumsum([0, *sizes]).tolist(), sizes):
            reference_write_table(folder / "part.csv", header, row_format, rows[lo : lo + size])
            assert path.read_bytes() == (folder / "part.csv").read_bytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1, ioutil._BLOCK_CELLS // 3 + 1])
    def test_rows_about_a_block_boundary(self, tmp_path, offset):
        # Three cells a row; values repeat within a block and from one block to the next.
        n = ioutil._BLOCK_CELLS // 3 + offset
        x = np.arange(n) % 7 * 0.1
        write_table(tmp_path / "new.csv", ["a", "b", "c"], [text_column(["u"] * n), x, -x])
        rows = [("u", a, -a) for a in x.tolist()]
        reference_write_table(tmp_path / "ref.csv", ["a", "b", "c"], "%s,%.17g,%.17g\n", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# Bit patterns a writer must keep apart or print alike: signed zeros, subnormals, extremes,
# infinities and NaNs with other signs and payloads (every NaN prints "nan").
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
           1.7976931348623157e308, math.inf, -math.inf, math.nan,
           *np.array([0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64).view(float).tolist()]


def table_file(tmp_path, body, header=("user_id", "a", "b")):
    path = tmp_path / "table.csv"
    path.write_text(",".join(header) + "\n" + body, encoding="utf-8", newline="")
    return path


class TestReadTable:
    def test_labeled_rows(self, tmp_path):
        path = table_file(tmp_path, "u,1,2\nv,3.5,-0\n")
        labels, values = read_table(path, ["user_id", "a", "b"], "table", labeled=True)
        assert labels == ["u", "v"]
        assert values.tolist() == [[1.0, 2.0], [3.5, -0.0]] and values.flags.c_contiguous

    def test_numeric_rows(self, tmp_path):
        path = table_file(tmp_path, "1,2,3\n4,5,6\n", header=("s", "a", "b"))
        labels, values = read_table(path, ["s", "a", "b"], "table")
        assert labels == [] and values.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_labels_read_back_exactly(self, tmp_path):
        # Text, not numpy's U dtype: edge whitespace survives.  Labels are user ids, so one
        # holding a line break or NUL, or an empty one, is refused (the next test).
        labels = ["a,b", 'say "hi"', " edge ", "é", "x=y", "u\xa0v", "\u2027"]
        path = tmp_path / "table.csv"
        write_table(path, ["user_id", "a"], [text_column(labels), np.arange(len(labels), dtype=float)])
        got, values = read_table(path, ["user_id", "a"], "table", labeled=True)
        assert got == labels
        assert values[:, 0].tolist() == list(range(len(labels)))

    @pytest.mark.parametrize(
        "label, cause",
        [
            ("two\nlines", "user id 'two\\nlines' holds a control character or line separator"),
            ("a\x00", "user id 'a\\x00' holds a control character or line separator"),
            ("\x00", "user id '\\x00' holds a control character or line separator"),
            ("a\u2028b", "user id 'a\\u2028b' holds a control character or line separator"),
            ("", "user id must be non-empty"),
        ],
    )
    def test_unwritable_label_names_its_first_row(self, tmp_path, label, cause):
        labels = ["u", label, "v", label]
        path = tmp_path / "table.csv"
        write_table(path, ["user_id", "a"], [text_column(labels), np.arange(len(labels), dtype=float)])
        line = 3 + label.count("\n")  # the label's first row ends on this line
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {cause}") + "$"):
            read_table(path, ["user_id", "a"], "table", labeled=True)

    def test_each_distinct_label_checked_once(self, tmp_path, monkeypatch):
        checked = []
        monkeypatch.setattr(ioutil, "_check_user_id", checked.append)
        path = table_file(tmp_path, "".join(f"u{i % 3},{i},0\n" for i in range(30)))
        labels, _ = read_table(path, ["user_id", "a", "b"], "table", labeled=True)
        assert len(labels) == 30 and checked == ["u0", "u1", "u2"]

    def test_blank_lines_skipped(self, tmp_path):
        path = table_file(tmp_path, "\nu,1,2\n\n\r\nv,3,4\n\n")
        labels, values = read_table(path, ["user_id", "a", "b"], "table", labeled=True)
        assert labels == ["u", "v"] and values.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("body", ["", "\n", "\n\r\n\n"])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_empty_body_gives_no_rows_and_no_warning(self, tmp_path, body, labeled):
        path = table_file(tmp_path, body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns "input contained no data"
            labels, values = read_table(path, ["user_id", "a", "b"], "table", labeled=labeled)
        assert labels == [] and values.shape == (0, 3 - labeled)

    @pytest.mark.parametrize(
        "body, labeled, cause",
        [
            ("u,1,2\nu,2\n", True, ":3: expected 3 fields, got 2"),
            ("u,1,2,3\nu,2,3,4\n", True, ":2: expected 3 fields, got 4"),
            ("1,2\n3,4\n", False, ":2: expected 3 fields, got 2"),
            ("1,2,3\n   \n", False, ":3: expected 3 fields, got 1"),
            ("u,1,2\n\nu,2,oops\n", True, ":4: could not convert string to float: 'oops'"),
            ("u,1,\n", True, ":2: could not convert string to float: ''"),
            ("1,2,3\n4,5, oops\n", False, ":3: could not convert string to float: ' oops'"),
            # float() reads these; the C parser does not, and neither does read_table
            ("u,1,1_0\n", True, ":2: could not convert string to float: '1_0'"),
            ("u,\u0663,2\n", True, ":2: could not convert string to float: '\u0663'"),
            ("u,1,2\nu,\uff11,2\n", True, ":3: could not convert string to float: '\uff11'"),
            # the first faulty row is now the one holding an unwritable id
            ('"two\nlines",1,2\nu,x,2\n', True, ":3: user id 'two\\nlines' holds a control character or line separator"),
            ('1,2,3\n"4\n",5,6\n7,x,9\n', False, ":5: could not convert string to float: 'x'"),
            ("u,1,2\nv\x00,3,4\nw,1,x\n", True, ":3: user id 'v\\x00' holds a control character or line separator"),
        ],
    )
    def test_fault_names_path_line_and_cause(self, tmp_path, body, labeled, cause):
        header = ("user_id", "a", "b") if labeled else ("s", "a", "b")
        path = table_file(tmp_path, body, header)
        with pytest.raises(ValueError, match=re.escape(f"{path}{cause}") + "$"):
            read_table(path, header, "table", labeled=labeled)

    def test_rows_ended_by_a_bare_carriage_return_read_like_their_lf_twin(self, tmp_path):
        header = ["user_id", "a", "b"]
        rows = "u,1,2\nv,3.5,0.1\n\nu,-0,1e-300\n"
        cr = table_file(tmp_path, rows.replace("\n", "\r"))
        (tmp_path / "lf").mkdir()
        lf = table_file(tmp_path / "lf", rows)
        cr_labels, cr_values = read_table(cr, header, "table", labeled=True)
        lf_labels, lf_values = read_table(lf, header, "table", labeled=True)
        assert cr_labels == lf_labels == ["u", "v", "u"]
        assert cr_values.view(np.uint64).tolist() == lf_values.view(np.uint64).tolist()

    def test_empty_file_and_wrong_header(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"table {path} is empty") + "$"):
            read_table(path, ["user_id", "a"], "table", labeled=True)
        path.write_text("user_id,b\nu,1\n", encoding="utf-8")
        expected = f"table {path} has header ['user_id', 'b'], expected ['user_id', 'a']"
        with pytest.raises(ValueError, match=re.escape(expected) + "$"):
            read_table(path, ["user_id", "a"], "table", labeled=True)

    @pytest.mark.parametrize(
        "text, line",
        [(b"user_id,a\nu,1\nv\xff,2\n", 3), (b"user_id,a\r\nu,1\r\nv,2\xc3\r\n", 3), (b"user_\x80id,a\nu,1\n", 1)],
        ids=["row", "crlf_row", "header"],
    )
    def test_byte_not_utf8_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "table.csv"
        path.write_bytes(text)
        byte = re.search(rb"[\x80-\xff]", text)[0][0]
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: byte 0x{byte:02x} is not UTF-8") + "$"):
            read_table(path, ["user_id", "a"], "table", labeled=True)

    def test_header_cells_are_stripped(self, tmp_path):
        path = table_file(tmp_path, "u,1,2\n", header=(" user_id", "a ", " b\t"))
        labels, values = read_table(path, ["user_id", "a", "b"], "table", labeled=True)
        assert labels == ["u"] and values.tolist() == [[1, 2]]

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30))
    @example([5e-324, -0.0, 1e308, math.inf, -math.inf, 1e-330, 0.1])
    def test_floats_are_those_float_gives(self, tmp_path_factory, xs):
        cells = [f(x) for x in xs for f in (repr, fmt, "{:.5e}".format, "{:.3f}".format)]
        path = tmp_path_factory.mktemp("floats") / "t.csv"
        path.write_text("a\n" + "\n".join(cells) + "\n", encoding="utf-8")
        _, values = read_table(path, ["a"], "table")
        expected = np.array([float(c) for c in cells])
        assert values[:, 0].view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestReadTableChunks:
    """read_table streams rows in chunks of ``_CHUNK_BYTES // itemsize`` rows."""

    HEADER = ["user_id", "a"]
    DTYPE = np.dtype([("label", object), ("values", float, (1,))])  # as read_table reads HEADER
    CHUNK_ROWS = ioutil._CHUNK_BYTES // DTYPE.itemsize

    def write(self, tmp_path, rows):
        path = tmp_path / "table.csv"
        path.write_text("user_id,a\n" + "".join(rows), encoding="utf-8", newline="")
        return path

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rows_around_a_chunk_boundary(self, tmp_path, offset):
        n = self.CHUNK_ROWS + offset
        rows = [f"u{i % 5},{i}\n" for i in range(n)]
        rows.insert(self.CHUNK_ROWS // 2, "\n\r\n")  # blank lines count toward no chunk
        labels, values = read_table(self.write(tmp_path, rows), self.HEADER, "table", labeled=True)
        assert labels == [f"u{i % 5}" for i in range(n)]
        assert values[:, 0].tolist() == list(range(n)) and values.flags.c_contiguous

    @pytest.mark.parametrize("first", [-2, -1, 0])
    def test_quoted_multi_line_cells_across_a_chunk_boundary(self, tmp_path, first):
        # Rows first and first + 1 hold a quoted value over three lines, so the lines of
        # row CHUNK_ROWS - 1 or CHUNK_ROWS run past the line that would end a chunk of lines.
        n = self.CHUNK_ROWS + 2
        rows = [f"u,{i}\n" for i in range(n)]
        for i in (self.CHUNK_ROWS + first, self.CHUNK_ROWS + first + 1):
            rows[i] = f'v,"\n{i}\r\n"\n'
        labels, values = read_table(self.write(tmp_path, rows), self.HEADER, "table", labeled=True)
        assert labels.count("v") == 2 and values[:, 0].tolist() == list(range(n))

    @pytest.mark.parametrize("first", [-1, 0])
    def test_quoted_multi_line_label_across_a_chunk_boundary_names_its_line(self, tmp_path, first):
        # The label's three lines straddle a chunk's last row; the id rule refuses it.
        rows = [f"u,{i}\n" for i in range(self.CHUNK_ROWS + 2)]
        rows[self.CHUNK_ROWS + first] = '"a\nb\nc",1\n'
        path = self.write(tmp_path, rows)
        line = self.CHUNK_ROWS + first + 4  # the header, then the label's three lines
        cause = "user id 'a\\nb\\nc' holds a control character or line separator"
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {cause}") + "$"):
            read_table(path, self.HEADER, "table", labeled=True)

    def test_fault_in_the_second_chunk_names_its_line(self, tmp_path):
        rows = [f"u,{i}\n" for i in range(self.CHUNK_ROWS + 5)]
        rows[self.CHUNK_ROWS + 2] = "u,oops\n"
        path = self.write(tmp_path, rows)
        line = self.CHUNK_ROWS + 4
        cause = "could not convert string to float: 'oops'"
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {cause}") + "$"):
            read_table(path, self.HEADER, "table", labeled=True)


class TestParseTimestamp:
    def test_epoch_seconds(self):
        assert parse_timestamp("100") == 100.0
        assert parse_timestamp("  100.5 ") == 100.5

    def test_iso_utc(self):
        assert parse_timestamp("1970-01-01T00:01:40+00:00") == 100.0

    def test_iso_z_suffix(self):
        assert parse_timestamp("1970-01-01T00:01:40Z") == 100.0

    def test_naive_is_utc(self):
        assert parse_timestamp("1970-01-02T00:00:00") == 86400.0

    def test_offset_respected(self):
        assert parse_timestamp("1970-01-01T01:01:40+01:00") == 100.0

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday")

