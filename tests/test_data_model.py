import contextlib
import csv
import io
import math
import os
import subprocess
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from fdrkit import (
    CovariateScaling,
    DomainError,
    HypothesisTable,
    InsufficientDataError,
    NetworkConfig,
    RecursionConfig,
    ScenarioConfig,
    SchemaError,
    TableParseError,
    TableValidationError,
    generate,
    load_table,
    standardize_covariates,
    write_table,
)
from fdrkit import data_model
from fdrkit.data_model import _WRITE_BLOCK


def _write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTable:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path, "z,x0,x1\n1.0,0.5,-0.5\n-2.0,1.5,2.5\n0.25,0,1\n")
        t = load_table(path)
        assert (t.n, t.k, t.q) == (3, 2, 0)
        assert t.h_truth is None
        np.testing.assert_allclose(t.z, [1.0, -2.0, 0.25])
        assert t.ids == ("0", "1", "2")

    def test_h_column(self, tmp_path):
        path = _write(tmp_path, "z,x0,h\n1.0,0.5,1\n-2.0,1.5,0\n")
        t = load_table(path)
        assert t.h_truth is not None
        np.testing.assert_array_equal(t.h_truth, [1, 0])

    def test_h_outside_binary(self, tmp_path):
        path = _write(tmp_path, "z,x0,h\n1.0,0.5,2\n")
        with pytest.raises(TableValidationError, match="outside"):
            load_table(path)

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = _write(tmp_path, "z,x0\n1.0,0.5\nfoo,1.5\n")
        with pytest.raises(TableParseError, match="row 3.*'z'"):
            load_table(path)

    def test_no_covariate_columns(self, tmp_path):
        path = _write(tmp_path, "z,h\n1.0,0\n")
        with pytest.raises(SchemaError):
            load_table(path)

    def test_id_column_used(self, tmp_path):
        path = _write(tmp_path, "id,z,x0\nalpha,1.0,0.5\nbeta,2.0,1.5\n")
        t = load_table(path)
        assert t.ids == ("alpha", "beta")

    @pytest.mark.parametrize("header, repeated", [
        ("z,x0,z,id,id", "'z' appears 2"),
        ("z,x0,x1,x0,id", "'x0' appears 2"),
        ("z,x0,a0,a0,id", "'a0' appears 2"),
        ("z,x0,h,h,id", "'h' appears 2"),
        ("z,x0,id,x1,id", "'id' appears 2"),
    ])
    @pytest.mark.parametrize("cell", ["r", "r\x1c"])  # fast and per-cell paths
    def test_repeated_column_refused(self, tmp_path, header, repeated, cell):
        path = _write_bytes(tmp_path, f"{header}\n1,0,1,0,{cell}\n")
        with pytest.raises(SchemaError, match=repeated):
            load_table(path)

    def test_repeated_ignored_column_allowed(self, tmp_path):
        path = _write(tmp_path, "z,note,x0,note,x2,x2\n1.5,u,0.5,v,7,8\n")
        t = load_table(path)
        assert (t.z[0], t.X.tolist(), t.k) == (1.5, [[0.5]], 1)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = _write(tmp_path, "id,z,x0\nr0,0.0,0.1\nsame,1.0,0.5\n"
                      "other,1.5,0.2\nr1,0.0,0.1\nsame,2.0,1.5\nr1,3.0,0.3\n"
                      "same,2.5,0.4\n")
        with pytest.raises(TableValidationError, match="unique") as info:
            load_table(path)
        assert "'same' appears 3 times" in str(info.value)


class TestLoadTableEdges:
    """What ``load_table`` does with unusual input, cell for cell."""

    HEADER = "id,z,x0,x1,a0,h\n"

    def _load(self, tmp_path, body):
        return load_table(_write(tmp_path, self.HEADER + body))

    @pytest.mark.parametrize("body,where", [
        ("r0,1,2,3,4,0\n\nr1,1,2,3,4,1\n", "row 3, column 'z'"),
        ("r0,1,2,3,4\n", "row 2, column 'h'"),
        ("r0,1,2,3,4,0\nr1,1,2,x,4,1\nr2,1,y,3,4,0\n", "row 3, column 'x1'"),
        ("r0,1,2,3,q,0\nr1,1,2,3,4,7x\n", "row 2, column 'a0'"),
    ])
    def test_first_bad_cell_in_row_major_order(self, tmp_path, body, where):
        with pytest.raises(TableParseError) as info:
            self._load(tmp_path, body)
        assert str(info.value) == f"non-numeric value in {where}"

    def test_bad_covariate_before_a_bad_z_on_a_later_row(self, tmp_path):
        path = _write(tmp_path, "z,x0\n1,2\n1,bad\nbad,2\n")
        with pytest.raises(TableParseError) as info:
            load_table(path)
        assert str(info.value) == "non-numeric value in row 3, column 'x0'"

    def test_cells_of_a_row_are_checked_in_header_order(self, tmp_path):
        path = _write(tmp_path, "h,x0,z\nbad,bad,bad\n")
        with pytest.raises(TableParseError) as info:
            load_table(path)
        assert str(info.value) == "non-numeric value in row 2, column 'h'"

    def test_extra_trailing_cell_loads(self, tmp_path):
        t = self._load(tmp_path, "r0,1,2,3,4,0,extra\nr1,5,6,7,8,1\n")
        np.testing.assert_array_equal(t.z, [1.0, 5.0])
        np.testing.assert_array_equal(t.X, [[2.0, 3.0], [6.0, 7.0]])
        np.testing.assert_array_equal(t.h_truth, [0, 1])

    def test_quoted_id_keeps_its_comma(self, tmp_path):
        t = self._load(tmp_path, '"r,1",1,2,3,4,0\n')
        assert t.ids == ("r,1",)

    def test_underscore_digits_parse_as_float_does(self, tmp_path):
        t = self._load(tmp_path, "r0,1_0,2,3,4,0\n")
        assert t.z[0] == 10.0

    def test_hash_in_id_is_kept(self, tmp_path):
        t = self._load(tmp_path, "r#1,1,2,3,4,0\n")
        assert t.ids == ("r#1",)


def _write_bytes(tmp_path, text, name="t.csv"):
    """Write ``text`` as UTF-8 with its line endings exactly as given."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _reference_load(path):
    """``csv.reader`` rows and ``float()`` on each cell: the values and ids
    ``load_table`` must return for a well-formed id,z,x0,x1,a0,h table."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    pos = {name: i for i, name in enumerate(header)}

    def col(name):
        return np.array([float(r[pos[name]]) for r in rows])

    return {
        "ids": tuple(r[pos["id"]] for r in rows),
        "z": col("z"),
        "X": np.column_stack([col("x0"), col("x1")]),
        "Xa": col("a0").reshape(-1, 1),
        "h": col("h").astype(np.int64),
    }


class TestLoadTableContract:
    """Cells parse as ``csv`` splits them and ``float()`` reads them,
    whatever path the loader takes."""

    HEADER = "id,z,x0,x1,a0,h"

    def _load(self, tmp_path, rows, end="\n"):
        text = end.join([self.HEADER, *rows]) + end
        return load_table(_write_bytes(tmp_path, text))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_endings(self, tmp_path, end):
        t = self._load(tmp_path, ["r0,1,2,3,4,0", "r1,5,6,7,8,1"], end=end)
        assert t.ids == ("r0", "r1")
        np.testing.assert_array_equal(t.z, [1.0, 5.0])
        np.testing.assert_array_equal(t.X, [[2.0, 3.0], [6.0, 7.0]])
        np.testing.assert_array_equal(t.Xa, [[4.0], [8.0]])
        np.testing.assert_array_equal(t.h_truth, [0, 1])

    def test_doubled_quote_in_id(self, tmp_path):
        t = self._load(tmp_path, ['"a""b",1,2,3,4,0', 'r1,5,6,7,8,1'])
        assert t.ids == ('a"b', "r1")
        np.testing.assert_array_equal(t.z, [1.0, 5.0])

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_line_break_inside_quoted_id(self, tmp_path, end):
        t = self._load(tmp_path, [f'"a{end}b",1,2,3,4,0', "r1,5,6,7,8,1"],
                       end=end)
        assert t.ids == (f"a{end}b", "r1")
        np.testing.assert_array_equal(t.z, [1.0, 5.0])
        np.testing.assert_array_equal(t.h_truth, [0, 1])

    def test_spaces_around_numbers_and_in_ids(self, tmp_path):
        t = self._load(tmp_path, ["  r0 ,  6 ,\t2,3 ,4,0", " r1,5,6,7,8, 1"])
        assert t.ids == ("  r0 ", " r1")
        np.testing.assert_array_equal(t.z, [6.0, 5.0])
        np.testing.assert_array_equal(t.X, [[2.0, 3.0], [6.0, 7.0]])
        np.testing.assert_array_equal(t.h_truth, [0, 1])

    @pytest.mark.parametrize("text,ids", [
        ("id,z,x0,h\nr0,1,2,0\nr1,5,6,1\n", ("r0", "r1")),
        ("z,x0,id,h\n1,2,r0,0\n5,6,r1,1\n", ("r0", "r1")),
        ('id,z,x0,h\nr0,1,2,0\n"r\n1",5,6,1\n', ("r0", "r\n1")),
    ], ids=["id_first", "z_first", "per_cell"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, text, ids):
        t = load_table(_write_bytes(tmp_path, "\ufeff" + text))
        assert t.ids == ids
        np.testing.assert_array_equal(t.z, [1.0, 5.0])
        np.testing.assert_array_equal(t.X, [[2.0], [6.0]])

    def test_byte_order_mark_inside_an_id_is_kept(self, tmp_path):
        t = self._load(tmp_path, ["\ufeffr0,1,2,3,4,0", "r\ufeff1,5,6,7,8,1"])
        assert t.ids == ("\ufeffr0", "r\ufeff1")

    def test_bad_byte_offset_counts_the_byte_order_mark(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfid,z,x0\nr\xe9,1,2\n")
        with pytest.raises(TableParseError, match="byte 0xe9 at offset 12$"):
            load_table(path)

    def test_quoted_numbers(self, tmp_path):
        t = self._load(tmp_path, ['r0,"1.5",2,3,4,"1"'])
        assert (t.z[0], t.h_truth[0]) == (1.5, 1)

    def test_single_row(self, tmp_path):
        t = self._load(tmp_path, ["r0,1,2,3,4,1"])
        assert (t.n, t.X.shape, t.Xa.shape, t.ids) == (1, (1, 2), (1, 1), ("r0",))
        assert (t.z[0], t.h_truth[0]) == (1.0, 1)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_trailing_blank_line_is_a_bad_row(self, tmp_path, end):
        text = end.join([self.HEADER, "r0,1,2,3,4,0", "", ""])
        with pytest.raises(TableParseError) as info:
            load_table(_write_bytes(tmp_path, text))
        assert str(info.value) == "non-numeric value in row 3, column 'z'"

    @pytest.mark.parametrize("tail", ["", "\n", "\r\n"])
    def test_header_only_is_an_empty_table(self, tmp_path, tail):
        path = _write_bytes(tmp_path, self.HEADER + tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TableValidationError, match="at least one row"):
                load_table(path)

    def test_blank_body_is_a_bad_row(self, tmp_path):
        path = _write_bytes(tmp_path, self.HEADER + "\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TableParseError, match="row 2, column 'z'"):
                load_table(path)

    def test_extreme_values_bit_for_bit(self, tmp_path):
        cells = ["-0.0", "5e-324", "1e-320", "1.7976931348623157e308"]
        t = self._load(tmp_path, [
            f"r{i},{c},{c},{c},{c},0" for i, c in enumerate(cells)])
        want = np.array([float(c) for c in cells])
        for got in (t.z, t.X[:, 0], t.X[:, 1], t.Xa[:, 0]):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_controls_around_a_number_are_rejected(self, tmp_path, char):
        """float() does not strip \\x1c-\\x1f, though str.isspace() says
        they are spaces; the cell is bad, as float() says."""
        with pytest.raises(TableParseError) as info:
            self._load(tmp_path, ["r0,1,2,3,4,0", f"r1,1,2,{char}3,4,0"])
        assert str(info.value) == "non-numeric value in row 3, column 'x1'"

    def test_separator_control_in_an_id_is_kept(self, tmp_path):
        t = self._load(tmp_path, ["r\x1c0,1,2,3,4,0"])
        assert t.ids == ("r\x1c0",)

    def test_unicode_digits_parse_as_float_does(self, tmp_path):
        t = self._load(tmp_path, ["r0,١٢,2,3,4,0"])
        assert t.z[0] == 12.0

    @pytest.mark.parametrize("rows,end,kept", [
        (["r0,1,2,3,4,0", "r1,5,6,7,8,1"], "\r\n", [True]),
        (['"r,""0""",1,2,3,4,0', " r1 , 5 ,6,7,8,1"], "\n", [True]),
        (["r0,1,2,3,4,0", "", "r1,5,6,7,8,1"], "\n", [False]),
        (["", "r1,5,6,7,8,1"], "\n", [False]),
        (['"r\n0",1,2,3,4,0'], "\n", [False]),
        (["r0,1_0,2,3,4,0"], "\n", [False]),
        (["r0,1,2,3,4,0", "r1,5,6,7,8,1\x1c"], "\n", [False]),
    ])
    def test_loadtxt_pass_kept_only_where_it_agrees(self, tmp_path, monkeypatch,
                                                      rows, end, kept):
        seen = []
        parse_body = data_model._parse_body

        def spy(*args):
            cols = parse_body(*args)
            seen.append(cols is not None)
            return cols

        monkeypatch.setattr(data_model, "_parse_body", spy)
        with contextlib.suppress(TableParseError):
            self._load(tmp_path, rows, end=end)
        assert seen == kept

    def test_the_file_is_read_once(self, tmp_path, monkeypatch):
        """The ``np.loadtxt`` pass looks for ``_SEPARATORS`` in the lines
        it reads, so a table it keeps is read from disk once."""
        path = tmp_path / "t.csv"
        write_table(generate(ScenarioConfig(n=2000, seed=1)), path)
        read = [0]

        class Counting(io.FileIO):
            def readinto(self, buf):
                got = super().readinto(buf)
                read[0] += got or 0
                return got

        def counting_open(path, mode):
            return io.BufferedReader(Counting(path))

        monkeypatch.setattr(data_model, "open", counting_open, raising=False)
        assert load_table(path).n == 2000
        assert read[0] == path.stat().st_size

    def test_field_over_the_csv_limit_is_refused_as_csv_refuses_it(self, tmp_path):
        long_id = "r" * (csv.field_size_limit() + 1)
        with pytest.raises(TableParseError) as info:
            self._load(tmp_path, ["r0,1,2,3,4,0", f"{long_id},1,2,3,4,0"])
        assert str(info.value).endswith(
            "t.csv, line 3: field larger than field limit "
            f"({csv.field_size_limit()})")

    def test_header_field_over_the_csv_limit_is_a_parse_error(self, tmp_path):
        path = _write_bytes(tmp_path, "z," + "x" * (csv.field_size_limit() + 1)
                            + "\n1,2\n")
        with pytest.raises(TableParseError, match="t.csv, line 1: field larger"):
            load_table(path)

    def test_file_that_is_not_utf8_names_the_byte(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes("id,z,x0\nr1,1.0,0.5\ncafé,2.0,1.5\n".encode("latin-1"))
        with pytest.raises(TableParseError) as info:
            load_table(path)
        assert str(info.value) == f"{path}: not UTF-8 text, byte 0xe9 at offset 22"

    def test_bad_byte_past_the_first_decoded_chunk_is_named(self, tmp_path):
        body = "".join(f"r{i},1.0,0.5\n" for i in range(20_000)).encode()
        path = tmp_path / "t.csv"
        path.write_bytes(b"id,z,x0\n" + body + b"\xff,2.0,1.5\n")
        with pytest.raises(TableParseError, match=f"offset {8 + len(body)}$"):
            load_table(path)

    def test_random_table_matches_csv_and_float(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 3000
        forms = [repr, "{:.6e}".format, "{:.3f}".format, " {!r} ".format,
                 lambda v: repr(round(v)), "{:+.17g}".format, "{:E}".format]
        id_forms = ["r{}", "r,{}", 'r"{}"', " r{} ", "r {}"]

        def num(v):
            return forms[rng.integers(len(forms))](float(v))

        def rid(i):
            s = id_forms[rng.integers(len(id_forms))].format(i)
            return '"' + s.replace('"', '""') + '"' if "," in s or '"' in s else s

        values = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300, (n, 4))
        lines = [self.HEADER]
        for i in range(n):
            lines.append(",".join([rid(i), *map(num, values[i]),
                                   str(rng.integers(2))]))
        path = _write_bytes(tmp_path, "\r\n".join(lines) + "\r\n")
        t = load_table(path)
        ref = _reference_load(path)
        assert t.ids == ref["ids"]
        for got, want in ((t.z, ref["z"]), (t.X, ref["X"]), (t.Xa, ref["Xa"])):
            assert got.shape == want.shape
            np.testing.assert_array_equal(_bits(got), _bits(want))
        np.testing.assert_array_equal(t.h_truth, ref["h"])


    @pytest.mark.parametrize("hint", [1, 64])
    @pytest.mark.parametrize("rows", [
        [f"r{i},{i}.5,2,3,4,{i % 2}" for i in range(40)],
        ["r0,1,2,3,4,0", '"a\nb",1,2,3,4,0', "r2,5,6,7,8,1"],
        ["r0,1,2,3,4,0", "r1,1_0,2,3,4,0", "r2,5,6,7,8,1"],
    ], ids=["plain", "quoted-break", "underscore"])
    def test_small_read_blocks_read_the_same(self, tmp_path, monkeypatch,
                                             hint, rows):
        """The body is read a block of lines at a time; a block boundary
        anywhere changes nothing."""
        want = self._load(tmp_path, rows)
        monkeypatch.setattr(data_model, "_READ_HINT", hint)
        got = self._load(tmp_path, rows)
        assert got.ids == want.ids
        for name in ("z", "X", "Xa", "h_truth"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))

    def test_over_long_line_in_a_later_block_is_refused(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(data_model, "_READ_HINT", 16)
        long_id = "r" * (csv.field_size_limit() + 1)
        rows = [f"r{i},1,2,3,4,0" for i in range(20)] + [f"{long_id},1,2,3,4,0"]
        with pytest.raises(TableParseError, match="t.csv, line 22: field larger"):
            self._load(tmp_path, rows)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        path = tmp_path / "t.fifo"
        os.mkfifo(path)
        stop = threading.Event()

        def feed():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{self.HEADER}\nr0,1,2,3,4,0\nr1,5,6,7,8,1\n")
            # a reader that opens the pipe again waits for a writer for
            # ever; opening it once more gives that reader an empty file
            while not stop.wait(0.05):
                with contextlib.suppress(OSError):
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            t = load_table(path)
        finally:
            stop.set()
            writer.join(timeout=5)
        assert not writer.is_alive()
        assert t.ids == ("r0", "r1")
        np.testing.assert_array_equal(t.z, [1.0, 5.0])

    def test_body_is_read_without_a_copy_of_the_whole_file(self, tmp_path):
        """Only a block of lines is held at a time, so reading ``z`` alone
        from a wide table peaks well under the file's size."""
        k, n = 100, 4000
        cells = ",".join(["0.123456789012345"] * k)
        text = ",".join(["id", "z", *(f"x{j}" for j in range(k))]) + "\n"
        text += "".join(f"r{i},{i % 7}.5,{cells}\n" for i in range(n))
        path = _write(tmp_path, text)
        del text
        tracemalloc.start()
        try:
            t = load_table(path, blocks=())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.n == n
        assert peak < path.stat().st_size / 2

    def test_per_cell_loop_streams_the_body(self, tmp_path, monkeypatch):
        """A table the ``np.loadtxt`` pass declines (here for an id with a
        quoted line break) is read a row at a time by the per-cell loop,
        with no copy of the whole file either."""
        k, n = 100, 4000
        cells = ",".join(["0.123456789012345"] * k)
        text = ",".join(["id", "z", *(f"x{j}" for j in range(k))]) + "\n"
        text += '"r\n0",0.5,' + cells + "\n"
        text += "".join(f"r{i},{i % 7}.5,{cells}\n" for i in range(1, n))
        path = _write(tmp_path, text)
        del text
        declined = []
        parse_body = data_model._parse_body

        def spy(*args):
            cols = parse_body(*args)
            declined.append(cols is None)
            return cols

        monkeypatch.setattr(data_model, "_parse_body", spy)
        tracemalloc.start()
        try:
            t = load_table(path, blocks=())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert declined == [True]
        assert (t.n, t.ids[:2]) == (n, ("r\n0", "r1"))
        assert peak < path.stat().st_size / 2

    @pytest.mark.parametrize("text,offset", [
        ("id,x0\nr1,0.5\ncafé,1.5\n", 16),
        ("id,z,x0\nr1,oops,0.5\ncafé,2.0,1.5\n", 23),
        ("id,z,x0\nr1\ncafé,2.0,1.5\n", 14),
    ], ids=["after_a_missing_z", "after_a_bad_cell", "after_a_short_row"])
    def test_bad_byte_is_named_before_any_other_fault(self, tmp_path, text,
                                                      offset):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(TableParseError) as info:
            load_table(path)
        assert str(info.value) == (
            f"{path}: not UTF-8 text, byte 0xe9 at offset {offset}")

    @pytest.mark.parametrize("hint", [1, 2, 3, 64])
    def test_bad_byte_offset_is_absolute_across_read_blocks(
            self, tmp_path, monkeypatch, hint):
        """Multi-byte characters split across blocks shift no offset."""
        head = "id,z,x0\nré€𝄞,1,2\nr".encode()
        path = tmp_path / "t.csv"
        path.write_bytes(head + b"\xe2\x82(,1,2\n")
        monkeypatch.setattr(data_model, "_READ_HINT", hint)
        with pytest.raises(TableParseError) as info:
            load_table(path)
        assert str(info.value).endswith(
            f"byte 0xe2 at offset {len(head)}")

    def test_row_without_its_id_is_a_parse_error(self, tmp_path):
        path = _write(tmp_path, "z,x0,id\n1,2,a\n3,4\n")
        with pytest.raises(TableParseError) as info:
            load_table(path)
        assert str(info.value) == "no value in row 3, column 'id'"


class TestRoundTrip:
    @pytest.mark.parametrize("q,with_h", [(0, False), (2, True), (3, False)])
    def test_write_then_load_is_identity(self, tmp_path, q, with_h):
        rng = np.random.default_rng(5)
        n, k = 17, 4
        t = HypothesisTable(
            z=rng.standard_normal(n),
            X=rng.standard_normal((n, k)),
            Xa=rng.standard_normal((n, q)),
            h_truth=rng.integers(0, 2, n) if with_h else None,
            ids=tuple(f"r{i}" for i in range(n)),
        )
        path = tmp_path / "rt.csv"
        write_table(t, path)
        back = load_table(path)
        np.testing.assert_array_equal(back.z, t.z)
        np.testing.assert_array_equal(back.X, t.X)
        np.testing.assert_array_equal(back.Xa, t.Xa)
        assert back.ids == t.ids
        if with_h:
            np.testing.assert_array_equal(back.h_truth, t.h_truth)
        else:
            assert back.h_truth is None

    #: name -> (n, k, q, with_h, ids, leading z values)
    _WRITER_CASES = {
        "block_boundary": (_WRITE_BLOCK + 3, 2, 1, True, (), ()),
        "ids_needing_quotes": (7, 2, 1, True,
                               ("a,b", 'say "hi"', "cr\rx", "lf\nx", "",
                                '"', "plain"), ()),
        "without_h": (5, 2, 1, False, (), ()),
        "q_zero": (5, 2, 0, True, (), ()),
        "k_one": (5, 1, 1, True, (), ()),
        "one_row": (1, 3, 2, True, (), ()),
        "two_blocks_and_one": (2 * _WRITE_BLOCK + 1, 2, 2, False, (), ()),
        "extreme_floats": (6, 2, 1, True, (),
                           (-0.0, 5e-324, 1e-05, 1e16, 1e22, -1e-300)),
    }

    def test_bytes_match_row_by_row_reference(self, tmp_path):
        """Block-wise formatting writes what a row-at-a-time ``csv.writer``
        loop writes: across block boundaries, for ids that need quotes,
        with and without ``h`` and ``Xa``, and for extreme floats."""
        rng = np.random.default_rng(6)
        for name, (n, k, q, with_h, ids, head) in self._WRITER_CASES.items():
            z = rng.standard_normal(n)
            z[:len(head)] = head
            t = HypothesisTable(
                z=z, X=rng.standard_normal((n, k)),
                Xa=rng.standard_normal((n, q)),
                h_truth=rng.integers(0, 2, n) if with_h else None, ids=ids,
            )
            path = tmp_path / f"{name}.csv"
            write_table(t, path)
            ref = io.StringIO(newline="")
            writer = csv.writer(ref)
            writer.writerow(["id", "z", *(f"x{j}" for j in range(k)),
                             *(f"a{j}" for j in range(q)),
                             *(["h"] if with_h else [])])
            for i in range(n):
                writer.writerow([t.ids[i], repr(float(t.z[i])),
                                 *(repr(float(v)) for v in t.X[i]),
                                 *(repr(float(v)) for v in t.Xa[i]),
                                 *([str(int(t.h_truth[i]))] if with_h else [])])
            assert path.read_bytes() == ref.getvalue().encode("utf-8"), name
            back = load_table(path)
            assert back.ids == t.ids, name
            np.testing.assert_array_equal(back.z, t.z)
            np.testing.assert_array_equal(np.signbit(back.z), np.signbit(t.z))

    def test_write_peaks_well_under_the_file_size(self, tmp_path):
        """Only a block of rows is formatted at a time: formatting the whole
        table at once, or blocks of thousands of rows, would peak near or
        over the file's size."""
        rng = np.random.default_rng(8)
        n = 20_000
        t = HypothesisTable(z=rng.standard_normal(n),
                            X=rng.standard_normal((n, 10)),
                            Xa=rng.standard_normal((n, 2)),
                            h_truth=rng.integers(0, 2, n))
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_table(t, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 10


def _table(n, q=2, with_h=True, ids=(), seed=9):
    rng = np.random.default_rng(seed)
    return HypothesisTable(z=rng.standard_normal(n),
                           X=rng.standard_normal((n, 2)),
                           Xa=rng.standard_normal((n, q)),
                           h_truth=rng.integers(0, 2, n) if with_h else None,
                           ids=ids)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestWriteParts:
    """``write_table`` in forked parts, forced onto small tables by
    patching the CPU count and the part minimum."""

    @pytest.fixture
    def parts(self, monkeypatch):
        """``parts(k, min_rows)`` lets a write use up to k parts of at
        least ``min_rows`` rows; it returns the list of forked pids."""
        forks = []
        fork = os.fork

        def recorded():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        def force(k, min_rows=1):
            monkeypatch.setattr(data_model, "_usable_cpus", lambda: k)
            monkeypatch.setattr(data_model, "_MIN_PART_ROWS", min_rows)
            return forks

        monkeypatch.setattr(os, "fork", recorded)
        return force

    @staticmethod
    def _one_part(monkeypatch, table, path):
        with monkeypatch.context() as m:
            m.setattr(data_model, "_usable_cpus", lambda: 1)
            write_table(table, path)
        return path.read_bytes()

    _TABLES = {
        "blocks": lambda: _table(2 * _WRITE_BLOCK + 5),
        "ids_needing_quotes": lambda: _table(
            7, ids=("a,b", 'say "hi"', "cr\rx", "lf\nx", "", '"', "plain")),
        "without_h": lambda: _table(11, with_h=False),
        "q_zero": lambda: _table(10, q=0),
    }

    @pytest.mark.parametrize("name", sorted(_TABLES))
    @pytest.mark.parametrize("k, min_rows, forks", [
        (1, 1, 0), (2, 1, 1), (3, 1, 2), (3, "half", 1), (3, 1000, 0)])
    def test_bytes_are_the_same_in_any_number_of_parts(
            self, parts, monkeypatch, tmp_path, name, k, min_rows, forks):
        table = self._TABLES[name]()
        want = self._one_part(monkeypatch, table, tmp_path / "one.csv")
        forked = parts(k, table.n // 2 if min_rows == "half" else min_rows)
        path = tmp_path / "parts.csv"
        write_table(table, path)
        assert path.read_bytes() == want
        assert len(forked) == forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc")
    @pytest.mark.parametrize("failing_row, raised, rows", [
        (20, OSError, "rows 20-29"),  # the last child's part
        (12, OSError, "rows 10-19"),  # the first child's part
        (3, RuntimeError, "cannot format"),  # this process's part
    ])
    def test_a_failing_part_raises_and_leaves_nothing_behind(
            self, parts, monkeypatch, capfd, tmp_path, failing_row, raised,
            rows):
        forked = parts(3)
        field = data_model._csv_field

        def failing(text):
            if text == f"r{failing_row}":
                raise RuntimeError("cannot format")
            return field(text)

        monkeypatch.setattr(data_model, "_csv_field", failing)
        table = _table(30, ids=tuple(f"r{i}" for i in range(30)))
        fds = _open_fds()
        with pytest.raises(raised, match=rows):
            write_table(table, tmp_path / "t.csv")
        assert len(forked) == 2
        with pytest.raises(ChildProcessError):  # every child waited for
            os.waitpid(-1, os.WNOHANG)
        assert _open_fds() == fds  # every spool closed
        if raised is OSError:  # the child's traceback reached stderr
            assert "RuntimeError: cannot format" in capfd.readouterr().err

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc")
    def test_a_second_thread_keeps_the_write_in_process(
            self, monkeypatch, tmp_path):
        table = _table(40)
        want = self._one_part(monkeypatch, table, tmp_path / "one.csv")
        monkeypatch.setattr(data_model, "_MIN_PART_ROWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)

        def no_fork():
            raise AssertionError("forked beside a second thread")

        monkeypatch.setattr(os, "fork", no_fork)
        assert data_model._usable_cpus() == 3
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert data_model._usable_cpus() == 1
            write_table(table, tmp_path / "t.csv")
        finally:
            stop.set()
            thread.join()
        assert (tmp_path / "t.csv").read_bytes() == want

    def test_no_spool_keeps_the_write_in_process(self, parts, monkeypatch,
                                                 tmp_path):
        table = _table(30)
        want = self._one_part(monkeypatch, table, tmp_path / "one.csv")
        forked = parts(3)
        spool = tempfile.TemporaryFile
        made = []

        def second_fails():
            if made:
                raise OSError("no room for a spool")
            made.append(spool())
            return made[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", second_fails)
        write_table(table, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == want
        assert forked == [] and made[0].closed

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_a_fifo_gets_the_same_bytes(self, parts, monkeypatch, tmp_path):
        table = _table(3 * _WRITE_BLOCK + 1)
        want = self._one_part(monkeypatch, table, tmp_path / "one.csv")
        forked = parts(3)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with open(tmp_path / "got.csv", "wb") as sink:
            reader = subprocess.Popen(["cat", str(fifo)], stdout=sink)
        try:
            write_table(table, fifo)
            reader.wait(timeout=60)
        finally:
            reader.kill()  # nothing once it has exited
            reader.wait()
        assert len(forked) == 2
        assert (tmp_path / "got.csv").read_bytes() == want


class TestValidation:
    def test_nonfinite_z_rejected(self):
        with pytest.raises(TableValidationError):
            HypothesisTable(z=[np.nan], X=[[1.0]], Xa=np.empty((1, 0)))

    def test_missing_covariate_rejected(self):
        with pytest.raises(TableValidationError):
            HypothesisTable(z=[0.0], X=[[np.inf]], Xa=np.empty((1, 0)))

    def test_empty_table_rejected(self):
        with pytest.raises(TableValidationError):
            HypothesisTable(z=[], X=np.empty((0, 1)), Xa=np.empty((0, 0)))

    def test_immutable_arrays(self):
        t = HypothesisTable(z=[0.0, 1.0], X=[[1.0], [2.0]], Xa=np.empty((2, 0)))
        with pytest.raises(ValueError):
            t.z[0] = 5.0

    def test_caller_arrays_stay_writeable(self):
        z, X = np.array([0.5, -1.0]), np.array([[1.0], [2.0]])
        Xa, h = np.array([[3.0], [4.0]]), np.array([1, 0], dtype=np.int64)
        before = [a.copy() for a in (z, X, Xa, h)]
        t = HypothesisTable(z=z, X=X, Xa=Xa, h_truth=h)
        for arr, orig in zip((z, X, Xa, h), before):
            assert arr.flags.writeable
            np.testing.assert_array_equal(arr, orig)
        z[0], X[0, 0], Xa[0, 0], h[0] = 9.0, 9.0, 9.0, 0
        assert (t.z[0], t.X[0, 0], t.Xa[0, 0], t.h_truth[0]) == (0.5, 1.0, 3.0, 1)

    def test_ids_as_an_array(self):
        t = HypothesisTable(z=[0.0, 1.0], X=[[1.0], [2.0]], Xa=None,
                            ids=np.array(["a", "b"]))
        assert t.ids == ("a", "b") and all(type(i) is str for i in t.ids)
        with pytest.raises(TableValidationError, match="unique"):
            HypothesisTable(z=[0.0, 1.0], X=[[1.0], [2.0]], Xa=None,
                            ids=np.array(["a", "a"]))

    def test_scalar_row_is_one_row_table(self):
        t = HypothesisTable(z=1.5, X=[[1.0]], Xa=None, h_truth=1)
        assert (t.n, t.z.shape, t.h_truth.shape) == (1, (1,), (1,))


def test_records_holding_arrays_compare_by_identity_and_hash():
    from fdrkit.aux_adjust import BetaParams, RegressionFit
    from fdrkit.baselines import DiscoverySet
    from fdrkit.densities import MixtureDensity

    makers = [
        lambda: HypothesisTable(z=[0.5, 1.5], X=[[1.0], [2.0]], Xa=None),
        lambda: DiscoverySet(rejected=[1], scores=[0.5, 0.01], alpha=0.1,
                             method="bh"),
        lambda: BetaParams(a=[1.0, 2.0], b=[3.0, 4.0]),
        lambda: RegressionFit(mu_a=0.0, mu_b=0.0, delta_a=[1.0, 2.0],
                              delta_b=[3.0, 4.0], sigma=np.eye(2)),
        lambda: MixtureDensity(lo=-1.0, step=1.0, sd=1.0, weights=[0.5, 0.5]),
        lambda: CovariateScaling(x_center=[0.0, 1.0], x_scale=[1.0, 2.0],
                                 a_center=[], a_scale=[]),
    ]
    for make in makers:
        one, other = make(), make()
        assert one == one and one != other
        assert hash(one) != hash(other) and len({one, one, other}) == 2


@pytest.mark.parametrize("make, field", [
    (lambda: generate(ScenarioConfig(n=2000, covariate_signal=math.nan)),
     "covariate_signal"),
    (lambda: ScenarioConfig(alt_sd=math.nan), "alt_sd"),
    (lambda: ScenarioConfig(alt_mean=math.nan), "alt_mean"),
    (lambda: ScenarioConfig(n=2.5), "n"),
    (lambda: ScenarioConfig(k=1.5), "k"),
    (lambda: NetworkConfig(input_dim=2.5), "input_dim"),
    (lambda: NetworkConfig(input_dim=2, hidden_sizes=(2.5,)), "hidden_sizes"),
    (lambda: NetworkConfig(input_dim=2, output_floor=math.nan), "output_floor"),
    (lambda: NetworkConfig(input_dim=2, output_floor=math.inf), "output_floor"),
    (lambda: RecursionConfig(kernel_sd="1"), "kernel_sd"),
], ids=["covariate_signal_nan", "alt_sd_nan", "alt_mean_nan", "n_float",
        "k_float", "input_dim_float", "hidden_size_float", "output_floor_nan",
        "output_floor_inf", "kernel_sd_str"])
def test_settings_records_check_their_field_types(make, field):
    """Every settings record checks each field against its annotation
    first, and names the field it refuses."""
    with pytest.raises(DomainError, match=rf"^{field} must be "):
        make()


class TestCovariateScaling:
    FIELDS = ("x_center", "x_scale", "a_center", "a_scale")

    def test_caller_arrays_stay_writeable(self):
        given = [np.array([0.5, -1.0]), np.array([2.0, 1.0]), np.array([3.0]),
                 np.array([4.0])]
        before = [arr.copy() for arr in given]
        scaling = CovariateScaling(*given)
        for arr, orig in zip(given, before):
            assert arr.flags.writeable
            np.testing.assert_array_equal(arr, orig)
            arr[...] = 9.0
        for name, orig in zip(self.FIELDS, before):
            held = getattr(scaling, name)
            assert not held.flags.writeable
            np.testing.assert_array_equal(held, orig)

    def test_dict_round_trip(self):
        rng = np.random.default_rng(4)
        t = HypothesisTable(z=rng.standard_normal(20),
                            X=rng.standard_normal((20, 3)) * 5 + 1,
                            Xa=rng.standard_normal((20, 2)))
        _, scaling = standardize_covariates(t)
        d = scaling.to_dict()
        assert set(d) == set(self.FIELDS)
        assert all(type(v) is list for v in d.values())
        back = CovariateScaling.from_dict(d)
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(scaling, name))
            assert not getattr(back, name).flags.writeable
        np.testing.assert_array_equal(back.apply(t).X, scaling.apply(t).X)

    def test_apply_shares_z_truth_and_ids(self):
        rng = np.random.default_rng(5)
        t = HypothesisTable(z=rng.standard_normal(6),
                            X=rng.standard_normal((6, 2)),
                            Xa=rng.standard_normal((6, 1)),
                            h_truth=rng.integers(0, 2, 6),
                            ids=tuple(f"r{i}" for i in range(6)))
        out, scaling = standardize_covariates(t)
        for scaled in (out, scaling.apply(t)):
            assert scaled.z is t.z
            assert scaled.h_truth is t.h_truth
            assert scaled.ids is t.ids
            assert not (scaled.X.flags.writeable or scaled.Xa.flags.writeable)

    def test_apply_leaves_an_unread_block_unread(self, tmp_path):
        path = _write(tmp_path, "z,x0,x1,a0\n1,2,3,4\n5,6,7,8\n9,1,2,7\n")
        full = load_table(path)
        _, scaling = standardize_covariates(full)
        out = scaling.apply(load_table(path, blocks=("Xa",)))
        assert out.X is None and (out.k, out.q) == (2, 1)
        np.testing.assert_array_equal(out.Xa, scaling.apply(full).Xa)


class TestStandardize:
    def test_simple_column(self):
        t = HypothesisTable(z=[0.0, 0.0, 0.0], X=[[1.0], [2.0], [3.0]],
                            Xa=np.empty((3, 0)))
        out, _ = standardize_covariates(t)
        np.testing.assert_allclose(out.X[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        t = HypothesisTable(z=[0.0, 0.0, 0.0], X=[[5.0], [5.0], [5.0]],
                            Xa=np.empty((3, 0)))
        out, _ = standardize_covariates(t)
        np.testing.assert_allclose(out.X[:, 0], [0.0, 0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        t = HypothesisTable(z=rng.standard_normal(40),
                            X=rng.standard_normal((40, 3)) * 7 + 2,
                            Xa=rng.standard_normal((40, 2)))
        once, _ = standardize_covariates(t)
        twice, _ = standardize_covariates(once)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-12)
        np.testing.assert_allclose(twice.Xa, once.Xa, atol=1e-12)

    def test_z_and_truth_untouched(self):
        rng = np.random.default_rng(3)
        t = HypothesisTable(z=rng.standard_normal(10),
                            X=rng.standard_normal((10, 2)),
                            Xa=np.empty((10, 0)),
                            h_truth=rng.integers(0, 2, 10))
        out, _ = standardize_covariates(t)
        np.testing.assert_array_equal(out.z, t.z)
        np.testing.assert_array_equal(out.h_truth, t.h_truth)

    def test_scaling_reusable(self):
        rng = np.random.default_rng(4)
        t = HypothesisTable(z=rng.standard_normal(20),
                            X=rng.standard_normal((20, 2)) * 3 - 1,
                            Xa=rng.standard_normal((20, 1)))
        out, scaling = standardize_covariates(t)
        again = scaling.apply(t)
        np.testing.assert_allclose(again.X, out.X)
        np.testing.assert_allclose(again.Xa, out.Xa)

    def test_single_row_rejected(self):
        t = HypothesisTable(z=[0.0], X=[[1.0]], Xa=np.empty((1, 0)))
        with pytest.raises(InsufficientDataError):
            standardize_covariates(t)


class TestLoadBlocks:
    """``load_table(..., blocks=...)`` parses only the covariate blocks it
    is given, and keeps the header's widths."""

    HEADER = "id,z,x0,x1,x2,x3,a0,a1,h"
    ROWS = ["r0,0.5,1,2,3,4,5,6,0", "r1,-1.5,7,8,9,10,11,12,1",
            "r2,2.5,13,14,15,16,17,18,1"]

    def _path(self, tmp_path, x3="16"):
        rows = [*self.ROWS[:2], self.ROWS[2].replace(",16,", f",{x3},")]
        return _write_bytes(tmp_path, "\n".join([self.HEADER, *rows]) + "\n")

    @pytest.mark.parametrize("blocks,usecols", [
        ((), [1, 8, 0]),
        (("X",), [1, 2, 3, 4, 5, 8, 0]),
        (("Xa",), [1, 6, 7, 8, 0]),
        (("X", "Xa"), [1, 2, 3, 4, 5, 6, 7, 8, 0]),
    ])
    def test_parses_only_the_given_blocks(self, tmp_path, monkeypatch,
                                          blocks, usecols):
        seen = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            seen.append(kwargs["usecols"])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(data_model.np, "loadtxt", spy)
        full = load_table(self._path(tmp_path))
        seen.clear()
        t = load_table(self._path(tmp_path), blocks=blocks)
        assert seen == [usecols]
        assert (t.n, t.k, t.q) == (3, 4, 2)
        assert t.ids is not None and t.ids == full.ids
        np.testing.assert_array_equal(t.z, full.z)
        np.testing.assert_array_equal(t.h_truth, full.h_truth)
        for name in ("X", "Xa"):
            if name in blocks:
                np.testing.assert_array_equal(getattr(t, name),
                                              getattr(full, name))
            else:
                assert getattr(t, name) is None

    @pytest.mark.parametrize("x3", ["oops", "16\x1c"],
                             ids=["loadtxt_pass", "per_cell_loop"])
    def test_bad_cell_in_an_unparsed_block_is_not_read(self, tmp_path, x3):
        bad = self._path(tmp_path, x3=x3)
        for blocks in (("X",), ("X", "Xa")):
            with pytest.raises(TableParseError) as info:
                load_table(bad, blocks=blocks)
            assert str(info.value) == "non-numeric value in row 4, column 'x3'"
        clean = load_table(_write_bytes(
            tmp_path, "\n".join([self.HEADER, *self.ROWS]) + "\n", "c.csv"),
            blocks=("Xa",))
        for blocks in ((), ("Xa",)):
            t = load_table(bad, blocks=blocks)
            np.testing.assert_array_equal(_bits(t.z), _bits(clean.z))
            if blocks:
                np.testing.assert_array_equal(_bits(t.Xa), _bits(clean.Xa))
            assert t.ids == clean.ids

    def test_per_cell_loop_parses_the_same_subset(self, tmp_path):
        fast = load_table(self._path(tmp_path), blocks=("Xa",))
        body = "\n".join([self.HEADER, *self.ROWS]).replace("r1", "r\x1c1")
        slow = load_table(_write_bytes(tmp_path, body + "\n", "s.csv"),
                          blocks=("Xa",))
        assert slow.X is None and (slow.k, slow.q) == (4, 2)
        assert slow.ids == ("r0", "r\x1c1", "r2")
        for name in ("z", "Xa"):
            np.testing.assert_array_equal(_bits(getattr(slow, name)),
                                          _bits(getattr(fast, name)))

    def test_header_is_checked_in_full(self, tmp_path):
        path = _write(tmp_path, "z,a0\n1,2\n")
        with pytest.raises(SchemaError, match="no test-level covariate"):
            load_table(path, blocks=())

    @pytest.mark.parametrize("blocks,unknown", [(("x",), "'x'"),
                                                ("Xa", "'a'")])
    def test_unknown_block_is_refused(self, tmp_path, blocks, unknown):
        with pytest.raises(DomainError, match=unknown):
            load_table(self._path(tmp_path), blocks=blocks)

    def test_unread_block_is_refused_where_it_is_needed(self, tmp_path):
        t = load_table(self._path(tmp_path), blocks=("Xa",))
        t.require("Xa")
        with pytest.raises(SchemaError, match="block X,"):
            t.require("Xa", "X")
        with pytest.raises(SchemaError, match="block X,"):
            write_table(t, tmp_path / "out.csv")
        with pytest.raises(SchemaError, match="block X,"):
            standardize_covariates(t)
        with pytest.raises(SchemaError, match="block Xa,"):
            standardize_covariates(load_table(self._path(tmp_path),
                                              blocks=("X",)))

    def test_widths_are_checked(self):
        with pytest.raises(TableValidationError, match="width k"):
            HypothesisTable(z=[0.0], X=None, Xa=None)
        with pytest.raises(TableValidationError, match="k=2 but"):
            HypothesisTable(z=[0.0], X=[[1.0]], Xa=None, k=2)
        t = HypothesisTable(z=[0.0], X=None, Xa=None, k=3, q=2)
        assert (t.X, t.Xa, t.k, t.q) == (None, None, 3, 2)
        assert HypothesisTable(z=[0.0], X=None, Xa=None, k=1).Xa.shape == (1, 0)
