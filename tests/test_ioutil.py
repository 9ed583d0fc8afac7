import csv
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genretrack.ioutil import (
    csv_cells, fmt, parse_timestamp, read_table, safe_filename, write_table
)


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


class TestWriteTable:
    def test_header_then_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ["user_id", "a,b", 'q"uote']
        rows = [(*csv_cells(["u,1"]), 3, -0.0), (*csv_cells(["é"]), 4, 0.1)]
        write_table(path, header, "%s,%d,%.17g\n", rows)
        expected = csv_writer_line(header)
        expected += csv_writer_line(["u,1", 3, fmt(-0.0)]) + csv_writer_line(["é", 4, fmt(0.1)])
        assert path.read_bytes() == expected.encode("utf-8")

    def test_no_rows(self, tmp_path):
        write_table(tmp_path / "t.csv", ["a", "b"], "%s,%s\n", [])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "a,b\n"


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
        # Text, not numpy's U dtype: a trailing NUL or edge whitespace survives.
        labels = ["a,b", 'say "hi"', "two\nlines", " edge ", "a\x00", "\x00", "é", "", "x=y"]
        path = tmp_path / "table.csv"
        write_table(path, ["user_id", "a"], "%s,%.17g\n", zip(csv_cells(labels), range(len(labels))))
        got, values = read_table(path, ["user_id", "a"], "table", labeled=True)
        assert got == labels
        assert values[:, 0].tolist() == list(range(len(labels)))

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
            ('"two\nlines",1,2\nu,x,2\n', True, ":4: could not convert string to float: 'x'"),
        ],
    )
    def test_fault_names_path_line_and_cause(self, tmp_path, body, labeled, cause):
        header = ("user_id", "a", "b") if labeled else ("s", "a", "b")
        path = table_file(tmp_path, body, header)
        with pytest.raises(ValueError, match=re.escape(f"{path}{cause}") + "$"):
            read_table(path, header, "table", labeled=labeled)

    def test_fault_csv_reads_but_the_c_parser_does_not_names_the_file(self, tmp_path):
        path = table_file(tmp_path, "u,1,2\rv,3,4\r")  # bare carriage returns end the rows
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*embedded newline"):
            read_table(path, ["user_id", "a", "b"], "table", labeled=True)

    def test_empty_file_and_wrong_header(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="table .* is empty"):
            read_table(path, ["user_id", "a"], "table", labeled=True)
        path.write_text("user_id,b\nu,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="columns do not match the vocabulary"):
            read_table(path, ["user_id", "a"], "table", labeled=True)

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30))
    @example([5e-324, -0.0, 1e308, math.inf, -math.inf, 1e-330, 0.1])
    def test_floats_are_those_float_gives(self, tmp_path_factory, xs):
        cells = [f(x) for x in xs for f in (repr, fmt, "{:.5e}".format, "{:.3f}".format)]
        path = tmp_path_factory.mktemp("floats") / "t.csv"
        path.write_text("a\n" + "\n".join(cells) + "\n", encoding="utf-8")
        _, values = read_table(path, ["a"], "table")
        expected = np.array([float(c) for c in cells])
        assert values[:, 0].view(np.uint64).tolist() == expected.view(np.uint64).tolist()


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


class TestSafeFilename:
    def test_passthrough(self):
        assert safe_filename("u0001") == "u0001"

    def test_replaces_separators(self):
        assert safe_filename("a/b\\c:d") == "a_b_c_d"
