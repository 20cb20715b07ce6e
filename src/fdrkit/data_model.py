"""Hypothesis table: CSV ingestion, validation, covariate standardization.

A table holds one row per hypothesis test: the test statistic ``z``, a
``k``-dimensional test-level covariate vector, an optional
``q``-dimensional auxiliary covariate vector, and (for simulated data)
the ground-truth label ``h``.

``load_table`` reads the file once. ``csv`` splits the header, and one
``np.loadtxt`` pass reads the body: quoted fields follow ``csv``'s
default dialect (``"a,b"``, a doubled ``""``), and numbers are converted
by the routine behind ``float()``. Whatever that pass cannot read the
same way goes through a per-cell ``csv`` + ``float()`` loop, so every
table reads as those two would read it. A blank line is an empty row,
and so a bad cell.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InsufficientDataError,
    SchemaError,
    TableParseError,
    TableValidationError,
)

_CONST_TOL = 1e-12
#: rows ``write_table`` formats at a time. Larger blocks are no faster
#: and leave their strings' memory behind: 4096-row blocks raised a
#: later 5000-row fit's peak RSS by 4 MB, 64-row blocks by nothing.
_WRITE_BLOCK = 64
#: bytes that ``np.loadtxt`` strips from a number as whitespace
#: (``str.isspace()`` is true for them) but ``float()`` rejects
_SEPARATORS = b"\x1c\x1d\x1e\x1f"


def _frozen(a, dtype=np.float64) -> np.ndarray:
    """A read-only contiguous copy; the caller's array stays writeable."""
    a = np.array(a, dtype=dtype, order="C", ndmin=1)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HypothesisTable:
    """Immutable container for n hypothesis tests.

    Parameters
    ----------
    z : ndarray, shape (n,)
        Test statistics (z-scores). Must be finite.
    X : ndarray, shape (n, k)
        Test-level covariates, k >= 1.
    Xa : ndarray, shape (n, q)
        Auxiliary covariates; q may be 0.
    h_truth : ndarray of {0,1}, shape (n,), optional
        Ground-truth labels (1 = alternative), when known.
    ids : tuple of str
        Unique row identifiers.
    """

    z: np.ndarray
    X: np.ndarray
    Xa: np.ndarray
    h_truth: np.ndarray | None = None
    ids: tuple[str, ...] = ()

    def __post_init__(self):
        z = _frozen(self.z)
        X = _frozen(self.X)
        n = z.shape[0]
        Xa = _frozen(self.Xa if self.Xa is not None else np.empty((n, 0)))
        if Xa.ndim == 1:
            Xa = Xa.reshape(n, -1) if Xa.size else Xa.reshape(n, 0)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Xa", Xa)
        if self.h_truth is not None:
            h = _frozen(self.h_truth, dtype=np.int64)
            object.__setattr__(self, "h_truth", h)
        ids = tuple(str(i) for i in self.ids) if self.ids else tuple(
            str(i) for i in range(n)
        )
        object.__setattr__(self, "ids", ids)
        self._validate()

    def _validate(self):
        n = self.z.shape[0]
        if n < 1:
            raise TableValidationError("table must contain at least one row")
        if self.z.ndim != 1 or not np.all(np.isfinite(self.z)):
            raise TableValidationError("z must be a finite 1-d vector")
        if self.X.ndim != 2 or self.X.shape[0] != n or self.X.shape[1] < 1:
            raise TableValidationError("X must be an (n, k) matrix with k >= 1")
        if not np.all(np.isfinite(self.X)):
            raise TableValidationError("X contains missing or non-finite entries")
        if self.Xa.shape[0] != n or not np.all(np.isfinite(self.Xa)):
            raise TableValidationError("Xa contains missing or non-finite entries")
        if self.h_truth is not None:
            if self.h_truth.shape != (n,):
                raise TableValidationError("h_truth length does not match table")
            if not np.all(np.isin(self.h_truth, (0, 1))):
                raise TableValidationError("h_truth must contain only 0/1 labels")
        if len(self.ids) != n:
            raise TableValidationError("ids length does not match table")
        if len(set(self.ids)) != n:
            raise TableValidationError("ids must be unique")

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Xa.shape[1]


@dataclass(frozen=True)
class TableSchema:
    """Column-name configuration for CSV ingestion.

    When ``x_cols``/``a_cols`` are None, columns named ``x0..x{k-1}`` and
    ``a0..a{q-1}`` (contiguous from 0) are auto-detected.
    """

    z_col: str = "z"
    x_cols: tuple[str, ...] | None = None
    a_cols: tuple[str, ...] | None = None
    h_col: str = "h"
    id_col: str = "id"
    x_prefix: str = "x"
    a_prefix: str = "a"


def _detect_prefixed(header: list[str], prefix: str) -> tuple[str, ...]:
    cols = []
    while f"{prefix}{len(cols)}" in header:
        cols.append(f"{prefix}{len(cols)}")
    return tuple(cols)


def _read_text(path) -> tuple[list[str], list[str], bool]:
    """The header's cells, the body's lines, and whether the file holds a
    ``_SEPARATORS`` byte: everything ``load_table`` needs from one read."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                              newline="") as text:
            try:
                header = next(csv.reader(text))
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected a header row")
            except csv.Error as err:
                raise TableParseError(f"{path}, line 1: {err}") from None
            lines = text.readlines()
    except UnicodeDecodeError as err:
        try:  # the wrapper decodes in chunks, so its offset is the chunk's
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            err = whole
        raise TableParseError(f"{path}: not UTF-8 text, byte "
                              f"{err.object[err.start]:#04x} at offset "
                              f"{err.start}") from None
    return header, lines, any(c in data for c in _SEPARATORS)


def _parse_body(lines: list[str], dtype: np.dtype, usecols: list[int]):
    """The body as one structured array from ``np.loadtxt``, or None where
    that pass may not read what ``csv`` and ``float()`` read."""
    # loadtxt warns on a body without rows, and skips the blank lines
    # that csv reads as empty rows; csv refuses a field over its limit
    if (not lines or lines[0] in ("\n", "\r\n", "\r")
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        cols = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', usecols=usecols, ndmin=1)
    except ValueError:
        return None
    # one row per line: no blank line skipped, no quoted line break
    return cols if cols.shape[0] == len(lines) else None


def load_table(path, schema: TableSchema = TableSchema()) -> HypothesisTable:
    """Read a hypothesis table from a headered CSV file.

    One ``np.loadtxt`` pass reads the body (see the module docstring). A
    per-cell ``csv`` + ``float()`` loop reads it instead wherever that
    pass fails or may read otherwise: a cell it cannot convert, a blank
    line, a quoted line break, a byte in ``_SEPARATORS``, or a line
    longer than ``csv``'s field limit. The loop walks the cells row by
    row, left to right, and names the first bad one.

    Raises
    ------
    SchemaError
        If a required column is absent.
    TableParseError
        If a cell is not numeric (message names row and column), a line
        is blank, the file is not UTF-8 (message names the byte offset)
        or a field is longer than ``csv``'s limit (message names the
        line).
    TableValidationError
        If parsed values violate a table invariant (e.g. h outside {0,1}).
    """
    header, lines, separators = _read_text(path)

    if schema.z_col not in header:
        raise SchemaError(f"missing column {schema.z_col}")
    x_cols = schema.x_cols or _detect_prefixed(header, schema.x_prefix)
    if not x_cols:
        raise SchemaError(
            f"no test-level covariate columns found (prefix {schema.x_prefix!r})"
        )
    for c in x_cols:
        if c not in header:
            raise SchemaError(f"missing column {c}")
    a_cols = schema.a_cols
    if a_cols is None:
        a_cols = _detect_prefixed(header, schema.a_prefix)
    else:
        for c in a_cols:
            if c not in header:
                raise SchemaError(f"missing column {c}")
    pos = {name: i for i, name in enumerate(header)}
    has_h = schema.h_col in header
    has_id = schema.id_col in header

    numeric = [schema.z_col, *x_cols, *a_cols]
    fields = [("z", np.float64), ("X", np.float64, (len(x_cols),)),
              ("Xa", np.float64, (len(a_cols),))]
    if has_h:
        fields.append(("h", np.float64))
        numeric.append(schema.h_col)
    names = list(numeric)
    if has_id:
        fields.append(("id", object))
        names.append(schema.id_col)
    cols = None if separators else _parse_body(
        lines, np.dtype(fields), [pos[c] for c in names])

    if cols is not None:
        n = cols.shape[0]
        z, X, Xa = cols["z"], cols["X"], cols["Xa"]
        hvals = cols["h"] if has_h else None
        ids = tuple(cols["id"].tolist()) if has_id else None
    else:
        reader = csv.reader(lines)
        try:
            rows = list(reader)
        except csv.Error as err:
            raise TableParseError(
                f"{path}, line {reader.line_num + 1}: {err}") from None
        n = len(rows)
        values = np.empty((n, len(numeric)))
        in_row_order = sorted(enumerate(numeric), key=lambda jc: pos[jc[1]])
        for i, row in enumerate(rows):
            for j, col in in_row_order:
                try:
                    values[i, j] = float(row[pos[col]])
                except (ValueError, IndexError):
                    raise TableParseError(
                        f"non-numeric value in row {i + 2}, column {col!r}"
                    )
        k, q = len(x_cols), len(a_cols)
        z, X, Xa = values[:, 0], values[:, 1:1 + k], values[:, 1 + k:1 + k + q]
        hvals = values[:, -1] if has_h else None
        ids = tuple(r[pos[schema.id_col]] for r in rows) if has_id else None

    h = None
    if has_h:
        if not np.all(np.isin(hvals, (0.0, 1.0))):
            bad = int(np.flatnonzero(~np.isin(hvals, (0.0, 1.0)))[0])
            raise TableValidationError(
                f"h value outside {{0,1}} in row {bad + 2}"
            )
        h = hvals.astype(np.int64)

    if ids is None:
        ids = tuple(str(i) for i in range(n))
    return HypothesisTable(z=z, X=X, Xa=Xa, h_truth=h, ids=ids)


def write_table(table: HypothesisTable, path, schema: TableSchema = TableSchema()):
    """Write a table as CSV so that ``load_table`` round-trips it exactly.

    Floats are written in shortest round-trip form; the ``h`` column is
    emitted only when truth labels are present.
    """
    x_cols = schema.x_cols or tuple(
        f"{schema.x_prefix}{j}" for j in range(table.k)
    )
    a_cols = schema.a_cols
    if a_cols is None:
        a_cols = tuple(f"{schema.a_prefix}{j}" for j in range(table.q))
    header = [schema.id_col, schema.z_col, *x_cols, *a_cols]
    if table.h_truth is not None:
        header.append(schema.h_col)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, table.n, _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            rows = [[rid, repr(z), *map(repr, x), *map(repr, xa)]
                    for rid, z, x, xa in zip(table.ids[block],
                                             table.z[block].tolist(),
                                             table.X[block].tolist(),
                                             table.Xa[block].tolist())]
            if table.h_truth is not None:
                for row, h in zip(rows, table.h_truth[block].tolist()):
                    row.append(str(h))
            writer.writerows(rows)


@dataclass(frozen=True)
class CovariateScaling:
    """Per-column centering/scaling parameters, reusable on new tables."""

    x_center: np.ndarray
    x_scale: np.ndarray
    a_center: np.ndarray
    a_scale: np.ndarray

    def apply(self, table: HypothesisTable) -> HypothesisTable:
        if table.k != self.x_center.shape[0] or table.q != self.a_center.shape[0]:
            raise TableValidationError("scaling was fitted on a different layout")
        X = (table.X - self.x_center) / self.x_scale
        Xa = (table.Xa - self.a_center) / self.a_scale
        return replace(table, X=X, Xa=Xa)


def _fit_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    center = M.mean(axis=0) if M.size else np.zeros(M.shape[1])
    sd = M.std(axis=0, ddof=1) if M.size else np.zeros(M.shape[1])
    # constant columns: center to zero, leave unscaled
    scale = np.where(sd > _CONST_TOL, sd, 1.0)
    return center, scale


def standardize_covariates(
    table: HypothesisTable,
) -> tuple[HypothesisTable, CovariateScaling]:
    """Center and scale each covariate column to mean 0, sample sd 1.

    Constant columns are shifted to zero and left unscaled. ``z`` and
    ``h_truth`` are untouched. Returns the standardized table together
    with the fitted scaling so it can be reused on held-out rows.
    """
    if table.n < 2:
        raise InsufficientDataError("standardization needs at least 2 rows")
    xc, xs = _fit_columns(table.X)
    ac, asc = _fit_columns(table.Xa)
    scaling = CovariateScaling(
        x_center=_frozen(xc), x_scale=_frozen(xs),
        a_center=_frozen(ac), a_scale=_frozen(asc),
    )
    return scaling.apply(table), scaling
