"""Hypothesis table: CSV ingestion, validation, covariate standardization.

A table holds one row per hypothesis test: the test statistic ``z``, a
``k``-dimensional test-level covariate vector, an optional
``q``-dimensional auxiliary covariate vector, and (for simulated data)
the ground-truth label ``h``.
"""

from __future__ import annotations

import csv
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


def load_table(path, schema: TableSchema = TableSchema()) -> HypothesisTable:
    """Read a hypothesis table from a headered CSV file.

    Raises
    ------
    SchemaError
        If a required column is absent.
    TableParseError
        If a cell is not numeric (message names row and column).
    TableValidationError
        If parsed values violate a table invariant (e.g. h outside {0,1}).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row")
        rows = list(reader)

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

    def cell(row_idx, row, col):
        try:
            return float(row[pos[col]])
        except (ValueError, IndexError):
            raise TableParseError(
                f"non-numeric value in row {row_idx + 2}, column {col!r}"
            )

    n = len(rows)
    has_h = schema.h_col in header

    def column(col):
        return np.array([r[pos[col]] for r in rows], dtype=np.float64)

    def matrix(cols):
        M = np.empty((n, len(cols)))
        for j, c in enumerate(cols):
            M[:, j] = column(c)
        return M

    # whole columns at once, through the same float() parser as cell();
    # on any failure the per-cell loop below finds and names the first
    # bad cell in its row-major order
    bulk = all(len(r) == len(header) for r in rows)
    if bulk:
        try:
            z, X, Xa = column(schema.z_col), matrix(x_cols), matrix(a_cols)
            hvals = column(schema.h_col) if has_h else None
        except ValueError:
            bulk = False
    if not bulk:
        z = np.array([cell(i, r, schema.z_col) for i, r in enumerate(rows)])
        X = np.array(
            [[cell(i, r, c) for c in x_cols] for i, r in enumerate(rows)]
        ).reshape(n, len(x_cols))
        Xa = np.array(
            [[cell(i, r, c) for c in a_cols] for i, r in enumerate(rows)]
        ).reshape(n, len(a_cols))
        if has_h:
            hvals = np.array(
                [cell(i, r, schema.h_col) for i, r in enumerate(rows)])

    h = None
    if has_h:
        if not np.all(np.isin(hvals, (0.0, 1.0))):
            bad = int(np.flatnonzero(~np.isin(hvals, (0.0, 1.0)))[0])
            raise TableValidationError(
                f"h value outside {{0,1}} in row {bad + 2}"
            )
        h = hvals.astype(np.int64)

    if schema.id_col in header:
        ids = tuple(r[pos[schema.id_col]] for r in rows)
    else:
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
