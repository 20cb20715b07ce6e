import contextlib
import csv
import io
import warnings

import numpy as np
import pytest

from fdrkit import (
    CovariateScaling,
    HypothesisTable,
    InsufficientDataError,
    SchemaError,
    TableParseError,
    TableSchema,
    TableValidationError,
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

    def test_missing_required_column(self, tmp_path):
        path = _write(tmp_path, "z,x0,x1\n1.0,0.5,-0.5\n")
        with pytest.raises(SchemaError, match="a0"):
            load_table(path, TableSchema(a_cols=("a0",)))

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

    def test_duplicate_ids_rejected(self, tmp_path):
        path = _write(tmp_path, "id,z,x0\nsame,1.0,0.5\nsame,2.0,1.5\n")
        with pytest.raises(TableValidationError, match="unique"):
            load_table(path)


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
        (["r0,1,2,3,4,0", "r1,5,6,7,8,1\x1c"], "\n", []),
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

    def test_bytes_match_row_by_row_reference(self, tmp_path):
        """Block-wise formatting writes what a row-at-a-time loop writes,
        across a block boundary."""
        rng = np.random.default_rng(6)
        n = _WRITE_BLOCK + 3
        t = HypothesisTable(
            z=rng.standard_normal(n), X=rng.standard_normal((n, 2)),
            Xa=rng.standard_normal((n, 1)), h_truth=rng.integers(0, 2, n),
        )
        path = tmp_path / "blocks.csv"
        write_table(t, path)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["id", "z", "x0", "x1", "a0", "h"])
        for i in range(n):
            writer.writerow([t.ids[i], repr(float(t.z[i])),
                             *(repr(float(v)) for v in t.X[i]),
                             *(repr(float(v)) for v in t.Xa[i]),
                             str(int(t.h_truth[i]))])
        assert path.read_bytes() == ref.getvalue().encode("utf-8")


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

    def test_scalar_row_is_one_row_table(self):
        t = HypothesisTable(z=1.5, X=[[1.0]], Xa=None, h_truth=1)
        assert (t.n, t.z.shape, t.h_truth.shape) == (1, (1,), (1,))


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
