import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genretrack.ioutil import csv_cells, fmt, parse_timestamp, safe_filename, write_table


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
