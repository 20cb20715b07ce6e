"""Hypothesis table: CSV ingestion, validation, covariate standardization.

A table holds one row per hypothesis test: the test statistic ``z``, a
``k``-dimensional test-level covariate vector, an optional
``q``-dimensional auxiliary covariate vector, and (for simulated data)
the ground-truth label ``h``.

``load_table`` reads the file a block at a time and never holds all of
it (a pipe, which cannot be read twice, is read into memory first).
``csv`` splits the header, and one ``np.loadtxt`` pass reads the body as
its lines are read: quoted fields follow ``csv``'s default dialect
(``"a,b"``, a doubled ``""``), and numbers are converted by the routine
behind ``float()``. Whatever that pass cannot read the same way goes
through a per-cell ``csv`` + ``float()`` loop over the whole file, so
every table reads as those two would read it. A blank line is an empty
row, and so a bad cell.
"""

from __future__ import annotations

import copy
import csv
import io
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DomainError,
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
#: bytes, or characters of body text, that one read takes from a file:
#: the most of a body ``load_table`` holds at once on its one-pass read
_READ_HINT = 1 << 20


def _frozen(a, dtype=np.float64, ndmin=1) -> np.ndarray:
    """A read-only contiguous copy; the caller's array stays writeable.

    Every record freezes its arrays through this, so no record shares
    memory with its caller or makes the caller's array read-only.
    """
    a = np.array(a, dtype=dtype, order="C", ndmin=ndmin)
    a.flags.writeable = False
    return a


class Record:
    """Base of the frozen dataclasses that are saved inside model files.

    ``to_dict`` maps each field to its value, arrays as nested lists;
    ``from_dict`` hands them back to the constructor, whose
    ``__post_init__`` turns the lists into frozen arrays again.
    """

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: v.tolist() if isinstance(v, np.ndarray) else v
                for name, v in values.items()}

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**d)


@dataclass(frozen=True)
class HypothesisTable:
    """Immutable container for n hypothesis tests.

    Parameters
    ----------
    z : ndarray, shape (n,)
        Test statistics (z-scores). Must be finite.
    X : ndarray, shape (n, k), or None
        Test-level covariates, k >= 1; None when the table was loaded
        without them (see ``load_table``'s ``blocks``).
    Xa : ndarray, shape (n, q), or None
        Auxiliary covariates; q may be 0. None means no auxiliary
        columns when ``q`` is unset or 0, and an unread block when q >= 1.
    h_truth : ndarray of {0,1}, shape (n,), optional
        Ground-truth labels (1 = alternative), when known.
    ids : tuple of str
        Unique row identifiers.
    k, q : int, optional
        Widths of ``X`` and ``Xa``: taken from a block that is given,
        checked against it when stated too, and required for an unread
        block, so a partly read table still knows its layout.
    """

    z: np.ndarray
    X: np.ndarray | None
    Xa: np.ndarray | None
    h_truth: np.ndarray | None = None
    ids: tuple[str, ...] = ()
    k: int | None = None
    q: int | None = None

    def __post_init__(self):
        z = _frozen(self.z)
        object.__setattr__(self, "z", z)
        n = z.shape[0]
        if n < 1:
            raise TableValidationError("table must contain at least one row")
        if z.ndim != 1 or not np.all(np.isfinite(z)):
            raise TableValidationError("z must be a finite 1-d vector")
        self._set_covariates(self.X, self.Xa)
        if self.h_truth is not None:
            h = _frozen(self.h_truth, dtype=np.int64)
            object.__setattr__(self, "h_truth", h)
            if h.shape != (n,):
                raise TableValidationError("h_truth length does not match table")
            if not np.all(np.isin(h, (0, 1))):
                raise TableValidationError("h_truth must contain only 0/1 labels")
        ids = tuple(str(i) for i in self.ids) if self.ids else tuple(
            str(i) for i in range(n)
        )
        object.__setattr__(self, "ids", ids)
        if len(ids) != n:
            raise TableValidationError("ids length does not match table")
        if len(set(ids)) != n:
            raise TableValidationError("ids must be unique")

    def _set_covariates(self, X, Xa):
        """Freeze and check the covariate blocks, and set ``k`` and ``q``."""
        n = self.n
        if X is not None:
            X = _frozen(X)
            if X.ndim != 2 or X.shape[0] != n or X.shape[1] < 1:
                raise TableValidationError(
                    "X must be an (n, k) matrix with k >= 1")
            if not np.all(np.isfinite(X)):
                raise TableValidationError(
                    "X contains missing or non-finite entries")
        elif not self.k or self.k < 1:
            raise TableValidationError("an unread X needs its width k >= 1")
        if Xa is None and not self.q:
            Xa = np.empty((n, 0))
        if Xa is not None:
            Xa = _frozen(Xa)
            if Xa.ndim == 1:
                Xa = Xa.reshape(n, -1) if Xa.size else Xa.reshape(n, 0)
            if Xa.shape[0] != n or not np.all(np.isfinite(Xa)):
                raise TableValidationError(
                    "Xa contains missing or non-finite entries")
        for name, block, width in (("k", X, self.k), ("q", Xa, self.q)):
            if block is not None:
                if width is not None and width != block.shape[1]:
                    raise TableValidationError(
                        f"{name}={width} but the block has "
                        f"{block.shape[1]} columns")
                object.__setattr__(self, name, block.shape[1])
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Xa", Xa)

    def _with_covariates(self, X, Xa) -> "HypothesisTable":
        """This table with new covariate blocks of the same widths.

        ``z``, ``h_truth`` and ``ids`` carry over as the same objects,
        already frozen and checked; only ``X`` and ``Xa`` are.
        """
        table = copy.copy(self)
        table._set_covariates(X, Xa)
        return table

    def require(self, *blocks: str) -> None:
        """Raise ``SchemaError`` naming the first of ``blocks`` (``"X"``,
        ``"Xa"``) that this table was loaded without."""
        for name in blocks:
            if getattr(self, name) is None:
                raise SchemaError(
                    f"this use needs covariate block {name}, which the "
                    f"table was loaded without")

    @property
    def n(self) -> int:
        return self.z.shape[0]


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


@dataclass(frozen=True)
class _Layout:
    """Where ``load_table`` finds each part of a table in the header.

    ``parsed`` maps each covariate block to parse to its columns, in
    ``HypothesisTable`` order; ``numeric`` lists the float columns (``z``,
    the parsed blocks, then ``h``), and ``names`` adds ``id``. ``dtype``
    is the structured row type of the one-pass read, in ``names`` order.
    """

    x_cols: tuple[str, ...]
    a_cols: tuple[str, ...]
    parsed: dict
    numeric: list
    names: list
    dtype: np.dtype
    pos: dict
    has_h: bool
    has_id: bool


def _layout(header: list[str], schema: TableSchema, blocks) -> _Layout:
    """Resolve the schema's columns against a header.

    Raises ``SchemaError`` if a required column is absent.
    """
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
    has_h = schema.h_col in header
    has_id = schema.id_col in header

    parsed = {name: cols for name, cols in (("X", x_cols), ("Xa", a_cols))
              if name in blocks}
    numeric = [schema.z_col, *(c for cols in parsed.values() for c in cols)]
    fields = [("z", np.float64)]
    fields += [(name, np.float64, (len(cols),)) for name, cols in parsed.items()]
    if has_h:
        fields.append(("h", np.float64))
        numeric.append(schema.h_col)
    names = list(numeric)
    if has_id:
        fields.append(("id", object))
        names.append(schema.id_col)
    return _Layout(tuple(x_cols), tuple(a_cols), parsed, numeric, names,
                   np.dtype(fields), {name: i for i, name in enumerate(header)},
                   has_h, has_id)


def _read_text(path, data: bytes) -> tuple[list[str], list[str]]:
    """The header's cells and the body's lines of the file at ``path``,
    whose bytes are ``data``; every way the file fails to be text raises
    here."""
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
    return header, lines


def _has_separators(fh) -> bool:
    """Whether the binary file ``fh`` holds a ``_SEPARATORS`` byte after
    its position; read a block at a time."""
    while block := fh.read(_READ_HINT):
        if any(c in block for c in _SEPARATORS):
            return True
    return False


def _checked_lines(first: str, text, counted: list[int]):
    """``first`` and the rest of ``text``'s lines, read ``_READ_HINT``
    characters at a time; ``counted[0]`` counts them.

    Raises ``ValueError`` at a block that holds a line longer than
    ``csv``'s field limit, which ``csv`` refuses.
    """
    block, limit = [first], csv.field_size_limit()
    while block:
        if max(map(len, block)) > limit:
            raise ValueError("a line is longer than csv's field limit")
        counted[0] += len(block)
        yield from block
        block = text.readlines(_READ_HINT)


def _parse_body(text, dtype: np.dtype, usecols: list[int]):
    """The rest of ``text`` as one structured array from ``np.loadtxt``,
    or None where that pass may not read what ``csv`` and ``float()``
    read, or the text is not UTF-8."""
    try:
        first = text.readline()
        # loadtxt warns on a body without rows, and skips the blank
        # lines that csv reads as empty rows
        if first in ("", "\n", "\r\n", "\r"):
            return None
        counted = [0]
        cols = np.loadtxt(_checked_lines(first, text, counted), dtype=dtype,
                          delimiter=",", comments=None, quotechar='"',
                          usecols=usecols, ndmin=1)
    except ValueError:  # a bad cell, a long line or a UnicodeDecodeError
        return None
    # one row per line: no blank line skipped, no quoted line break
    return cols if cols.shape[0] == counted[0] else None


def _stream_table(fh, schema: TableSchema, blocks):
    """The layout and the body of the seekable binary file ``fh``, read
    by ``_parse_body`` as the file is read; None wherever ``_read_text``
    and the per-cell loop must read the file instead, or name a fault in
    it. ``fh`` stays open."""
    if _has_separators(fh):
        return None
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    try:
        try:  # _read_text names a bad byte before a schema fault
            layout = _layout(next(csv.reader(text)), schema, blocks)
        except (StopIteration, csv.Error, SchemaError):
            return None
        cols = _parse_body(text, layout.dtype,
                           [layout.pos[c] for c in layout.names])
    except UnicodeDecodeError:  # in the header
        return None
    finally:
        text.detach()
    return None if cols is None else (layout, cols)


def _parse_cells(path, lines: list[str], layout: _Layout, id_col: str):
    """The body's numeric columns, one cell at a time by ``csv`` and
    ``float()``, and its ids; the first bad cell raises."""
    reader = csv.reader(lines)
    try:
        rows = list(reader)
    except csv.Error as err:
        raise TableParseError(
            f"{path}, line {reader.line_num + 1}: {err}") from None
    pos, numeric = layout.pos, layout.numeric
    values = np.empty((len(rows), len(numeric)))
    in_row_order = sorted(enumerate(numeric), key=lambda jc: pos[jc[1]])
    for i, row in enumerate(rows):
        for j, col in in_row_order:
            try:
                values[i, j] = float(row[pos[col]])
            except (ValueError, IndexError):
                raise TableParseError(
                    f"non-numeric value in row {i + 2}, column {col!r}"
                )
    ids = tuple(r[pos[id_col]] for r in rows) if layout.has_id else None
    return values, ids


#: the covariate blocks of a table, by their ``HypothesisTable`` names
COVARIATE_BLOCKS = ("X", "Xa")


def load_table(path, schema: TableSchema = TableSchema(), *,
               blocks=COVARIATE_BLOCKS) -> HypothesisTable:
    """Read a hypothesis table from a headered CSV file.

    One ``np.loadtxt`` pass reads the body a block of lines at a time
    (see the module docstring). Wherever that pass fails or may read
    otherwise (a cell it cannot convert, a blank line, a quoted line
    break, a byte in ``_SEPARATORS``, a line longer than ``csv``'s field
    limit, or bytes that are not UTF-8), the whole file is read instead,
    and a per-cell ``csv`` + ``float()`` loop walks the cells row by row,
    left to right, and names the first bad one.

    ``blocks`` names the covariate blocks to parse, out of ``"X"`` and
    ``"Xa"``; ``z``, ``h`` and ``id`` are always parsed. The header is
    checked in full whatever ``blocks`` holds, but a cell of a block left
    out is never read, so it cannot be a bad cell. That block is None in
    the table, whose ``k`` and ``q`` still come from the header.

    Raises
    ------
    DomainError
        If ``blocks`` names something other than ``"X"`` and ``"Xa"``.
    SchemaError
        If a required column is absent.
    TableParseError
        If a parsed cell is not numeric (message names row and column), a
        line is blank, the file is not UTF-8 (message names the byte
        offset) or a field is longer than ``csv``'s limit (message names
        the line).
    TableValidationError
        If parsed values violate a table invariant (e.g. h outside {0,1}).
    """
    unknown = sorted(set(blocks) - set(COVARIATE_BLOCKS))
    if unknown:
        raise DomainError(f"unknown covariate block(s) {unknown}; "
                          f"blocks are {list(COVARIATE_BLOCKS)}")
    with open(path, "rb") as fh:
        # a pipe cannot be read twice, so it is read once, into memory
        src = fh if fh.seekable() else io.BytesIO(fh.read())
        streamed = _stream_table(src, schema, blocks)
        if streamed is None:
            src.seek(0)
            data = src.read()
    if streamed is not None:
        layout, cols = streamed
        n = cols.shape[0]
        z = cols["z"]
        covariates = {name: cols[name] for name in layout.parsed}
        hvals = cols["h"] if layout.has_h else None
        ids = tuple(cols["id"].tolist()) if layout.has_id else None
    else:
        header, lines = _read_text(path, data)
        del data  # the per-cell loop needs only the lines
        layout = _layout(header, schema, blocks)
        values, ids = _parse_cells(path, lines, layout, schema.id_col)
        n = values.shape[0]
        z = values[:, 0]
        covariates, lo = {}, 1
        for name, block_cols in layout.parsed.items():
            covariates[name] = values[:, lo:lo + len(block_cols)]
            lo += len(block_cols)
        hvals = values[:, -1] if layout.has_h else None

    h = None
    if layout.has_h:
        if not np.all(np.isin(hvals, (0.0, 1.0))):
            bad = int(np.flatnonzero(~np.isin(hvals, (0.0, 1.0)))[0])
            raise TableValidationError(
                f"h value outside {{0,1}} in row {bad + 2}"
            )
        h = hvals.astype(np.int64)

    if ids is None:
        ids = tuple(str(i) for i in range(n))
    return HypothesisTable(z=z, X=covariates.get("X"), Xa=covariates.get("Xa"),
                           h_truth=h, ids=ids, k=len(layout.x_cols),
                           q=len(layout.a_cols))


def write_table(table: HypothesisTable, path, schema: TableSchema = TableSchema()):
    """Write a table as CSV so that ``load_table`` round-trips it exactly.

    Floats are written in shortest round-trip form; the ``h`` column is
    emitted only when truth labels are present.
    """
    table.require(*COVARIATE_BLOCKS)
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
class CovariateScaling(Record):
    """Per-column centering/scaling parameters, reusable on new tables."""

    x_center: np.ndarray
    x_scale: np.ndarray
    a_center: np.ndarray
    a_scale: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _frozen(getattr(self, f.name)))

    def apply(self, table: HypothesisTable) -> HypothesisTable:
        """The table with its covariates scaled; a block the table was
        loaded without stays unread."""
        if table.k != self.x_center.shape[0] or table.q != self.a_center.shape[0]:
            raise TableValidationError("scaling was fitted on a different layout")
        X = None if table.X is None else (table.X - self.x_center) / self.x_scale
        Xa = (None if table.Xa is None
              else (table.Xa - self.a_center) / self.a_scale)
        return table._with_covariates(X, Xa)


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
    table.require(*COVARIATE_BLOCKS)
    xc, xs = _fit_columns(table.X)
    ac, asc = _fit_columns(table.Xa)
    scaling = CovariateScaling(x_center=xc, x_scale=xs, a_center=ac,
                               a_scale=asc)
    return scaling.apply(table), scaling
