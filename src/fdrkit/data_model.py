"""Hypothesis table: CSV ingestion, validation, covariate standardization.

A table holds one row per hypothesis test: the test statistic ``z``, a
``k``-dimensional test-level covariate vector, an optional
``q``-dimensional auxiliary covariate vector, and (for simulated data)
the ground-truth label ``h``.

``load_table`` reads the file once, a block at a time, and never holds
all of it (a pipe, which cannot be read twice, is read into memory
first). ``csv`` splits the header, and one ``np.loadtxt`` pass reads the
body as its lines are read: quoted fields follow ``csv``'s default
dialect (``"a,b"``, a doubled ``""``), and numbers are converted by the
routine behind ``float()``. Whatever that pass cannot read the same way
is read again from the start by a per-cell ``csv`` + ``float()`` loop,
also a row at a time, into the same structured array, so every table
reads as those two would read it. A blank line is an empty row, and so
a bad cell.
"""

from __future__ import annotations

import codecs
import collections
import contextlib
import copy
import csv
import io
import math
import numbers
import os
import re
import shutil
import signal
import tempfile
import traceback
from array import array
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
#: rows ``write_table`` formats at a time. On one CPU, blocks of 64 to 4096
#: rows write a 50,000-row scenario-A table in the same 0.41-0.50 s (16
#: rows: 0.44-0.67 s), but the traced peak grows with the block: 0.17 MB
#: at 64 rows, 10 MB at 4096, which also raised the process's peak RSS by
#: 3.6 MB.
_WRITE_BLOCK = 64
#: rows each part of a ``write_table`` holds at least, so a table of fewer
#: than twice this many rows is written in this process. A forked part
#: costs about 5-10 ms: two parts first beat one at 2,000-4,000 rows.
_MIN_PART_ROWS = 8192
#: characters that ``np.loadtxt`` strips from a number as whitespace
#: (``str.isspace()`` is true for them) but ``float()`` rejects
_SEPARATORS = "\x1c\x1d\x1e\x1f"
#: bytes, or characters of body text, that one read takes from a file:
#: the most of a body ``load_table`` holds at once on its one-pass read
_READ_HINT = 1 << 20


def _usable_cpus() -> int:
    """CPUs this process can compute on at once: one per CPU it may run
    on (``os.sched_getaffinity``) while it has a single thread, else 1.

    A process with one thread has started no BLAS threads, so numpy's
    BLAS runs on the calling thread, and ``fork`` copies no thread that
    could hold a lock. Beside BLAS threads, more threads oversubscribe
    the CPUs: on 2 cores with BLAS unpinned, two parts of
    ``posterior_alt`` at 100k rows took a median 0.63 s against 0.50 s
    for one. Without /proc or an affinity call, 1.
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
        cpus = len(os.sched_getaffinity(0))
    except (OSError, AttributeError):  # no /proc, or no affinity call
        return 1
    return cpus if threads == 1 else 1


def _frozen(a, dtype=np.float64, ndmin=1) -> np.ndarray:
    """A read-only contiguous copy; the caller's array stays writeable.

    Every record freezes its arrays through this, so no record shares
    memory with its caller or makes the caller's array read-only. Records
    that hold arrays are declared with ``eq=False``: ``==`` is identity
    and they hash, where a field-by-field compare of arrays would raise.
    """
    a = np.array(a, dtype=dtype, order="C", ndmin=ndmin)
    a.flags.writeable = False
    return a


def _check_types(record) -> None:
    """Raise ``DomainError`` naming the first field of the settings
    dataclass ``record`` that its annotation refuses: an ``int`` field
    must hold an integer and not a bool, a ``float`` field a finite real,
    and a ``bool`` field a bool.

    The annotations are read as text, so the record's module imports
    ``annotations`` from ``__future__``.
    """
    for f in fields(record):  # f.type is the annotation's text
        value = getattr(record, f.name)
        if f.type == "int" and (isinstance(value, bool) or
                                not isinstance(value, numbers.Integral)):
            raise DomainError(f"{f.name} must be an integer, not {value!r}")
        if f.type == "float" and not (isinstance(value, numbers.Real)
                                      and math.isfinite(value)):
            raise DomainError(
                f"{f.name} must be a finite number, not {value!r}")
        if f.type == "bool" and not isinstance(value, bool):
            raise DomainError(f"{f.name} must be a bool, not {value!r}")


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


@dataclass(frozen=True, eq=False)
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
        ids = tuple(str(i) for i in self.ids) if len(self.ids) else tuple(
            str(i) for i in range(n)
        )
        object.__setattr__(self, "ids", ids)
        if len(ids) != n:
            raise TableValidationError("ids length does not match table")
        if len(set(ids)) != n:
            counts = collections.Counter(ids)
            first = next(i for i in ids if counts[i] > 1)
            raise TableValidationError(
                f"ids must be unique; {first!r} appears {counts[first]} times")

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


def _detect_prefixed(header: list[str], prefix: str) -> tuple[str, ...]:
    cols = []
    while f"{prefix}{len(cols)}" in header:
        cols.append(f"{prefix}{len(cols)}")
    return tuple(cols)


@dataclass(frozen=True)
class _Layout:
    """Where ``load_table`` finds each part of a table in the header.

    ``k`` and ``q`` count the header's ``x*`` and ``a*`` columns.
    ``parsed`` maps each covariate block to parse to its columns, in
    ``HypothesisTable`` order; ``numeric`` lists the float columns (``z``,
    the parsed blocks, then ``h``), and ``names`` adds ``id``. ``dtype``
    is the structured row type both parsers return, in ``names`` order;
    it has an ``h`` and an ``id`` field when the header has the column.
    """

    k: int
    q: int
    parsed: dict
    numeric: list
    names: list
    dtype: np.dtype
    pos: dict


def _layout(header: list[str], blocks) -> _Layout:
    """Find the table's columns in a header.

    Raises ``SchemaError`` if the header lacks ``z`` or ``x0``, or names a
    column it uses (``z``, ``x*``, ``a*``, ``h``, ``id``) twice.
    """
    if "z" not in header:
        raise SchemaError("missing column z")
    x_cols = _detect_prefixed(header, "x")
    if not x_cols:
        raise SchemaError(
            "no test-level covariate columns found (prefix 'x')")
    a_cols = _detect_prefixed(header, "a")
    counts = collections.Counter(header)
    for col in ("z", *x_cols, *a_cols, "h", "id"):
        if counts[col] > 1:
            raise SchemaError(
                f"column {col!r} appears {counts[col]} times in the header")

    parsed = {name: cols for name, cols in (("X", x_cols), ("Xa", a_cols))
              if name in blocks}
    numeric = ["z", *(c for cols in parsed.values() for c in cols)]
    fields = [("z", np.float64)]
    fields += [(name, np.float64, (len(cols),)) for name, cols in parsed.items()]
    if "h" in header:
        fields.append(("h", np.float64))
        numeric.append("h")
    names = list(numeric)
    if "id" in header:
        fields.append(("id", object))
        names.append("id")
    return _Layout(len(x_cols), len(a_cols), parsed, numeric, names,
                   np.dtype(fields), {name: i for i, name in enumerate(header)})


def _header(path, reader) -> list[str]:
    """The header's cells, the first row of the ``csv`` reader ``reader``."""
    try:
        return next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, expected a header row") from None
    except csv.Error as err:
        raise TableParseError(f"{path}, line 1: {err}") from None


@contextlib.contextmanager
def _text(src):
    """The binary file ``src`` read as UTF-8 text, less a leading
    byte-order mark; ``src`` stays open."""
    text = io.TextIOWrapper(src, encoding="utf-8-sig", newline="")
    try:
        yield text
    finally:
        text.detach()


def _check_utf8(path, src) -> None:
    """Raise ``TableParseError`` naming the first byte of ``src`` that is
    not UTF-8; ``src`` is decoded from its start a block at a time."""
    src.seek(0)
    decoder, end = codecs.getincrementaldecoder("utf-8")(), 0
    while True:
        block = src.read(_READ_HINT)
        end += len(block)
        try:
            decoder.decode(block, final=not block)
        except UnicodeDecodeError as err:  # err.object: held-back bytes + block
            raise TableParseError(
                f"{path}: not UTF-8 text, byte {err.object[err.start]:#04x} "
                f"at offset {end - len(err.object) + err.start}") from None
        if not block:
            return


def _checked_lines(first: str, text, counted: list[int]):
    """``first`` and the rest of ``text``'s lines, read ``_READ_HINT``
    characters at a time; ``counted[0]`` counts them.

    Raises ``ValueError`` at a block that holds a line longer than
    ``csv``'s field limit, which ``csv`` refuses, or a ``_SEPARATORS``
    character, which the two parsers read differently.
    """
    block, limit = [first], csv.field_size_limit()
    while block:
        if max(map(len, block)) > limit:
            raise ValueError("a line is longer than csv's field limit")
        chunk = "".join(block)
        if any(c in chunk for c in _SEPARATORS):
            raise ValueError("a line holds a separator character")
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
    except ValueError:  # a bad cell, a long line, a separator or bad UTF-8
        return None
    # one row per line: no blank line skipped, no quoted line break
    return cols if cols.shape[0] == counted[0] else None


def _parse_cells(path, text, layout: _Layout) -> np.ndarray:
    """The body of ``text``, from its start, as the ``layout.dtype`` array
    ``_parse_body`` returns, read one row at a time by ``csv`` and one
    cell at a time by ``float()``; the first bad cell raises."""
    reader = csv.reader(text)
    next(reader)  # the header, read already
    pos, numeric = layout.pos, layout.numeric
    in_row_order = sorted(enumerate(numeric), key=lambda jc: pos[jc[1]])
    has_id = "id" in layout.dtype.names
    values, cells, ids = array("d"), [0.0] * len(numeric), []
    try:
        for i, row in enumerate(reader, 2):
            for j, col in in_row_order:
                try:
                    cells[j] = float(row[pos[col]])
                except (ValueError, IndexError):
                    raise TableParseError(
                        f"non-numeric value in row {i}, column {col!r}"
                    ) from None
            values.extend(cells)
            if has_id:
                if pos["id"] >= len(row):
                    raise TableParseError(
                        f"no value in row {i}, column 'id'")
                ids.append(row[pos["id"]])
    except csv.Error as err:
        raise TableParseError(f"{path}, line {reader.line_num}: {err}") from None
    floats = np.dtype([(name, layout.dtype[name])
                       for name in layout.dtype.names if name != "id"])
    cols = np.empty(len(values) // len(numeric), layout.dtype)
    cols[list(floats.names)] = np.frombuffer(values, floats)
    if has_id:
        cols["id"] = ids
    return cols


#: the covariate blocks of a table, by their ``HypothesisTable`` names
COVARIATE_BLOCKS = ("X", "Xa")


def load_table(path, *, blocks=COVARIATE_BLOCKS) -> HypothesisTable:
    """Read a hypothesis table from a headered CSV file.

    The columns are ``z``, ``x0..x{k-1}`` (k >= 1), ``a0..a{q-1}`` and
    the optional ``h`` and ``id``, in any order; others are ignored.

    One ``np.loadtxt`` pass reads the body a block of lines at a time
    (see the module docstring). Wherever that pass fails or may read
    otherwise (a cell it cannot convert, a blank line, a quoted line
    break, a character in ``_SEPARATORS``, a line longer than ``csv``'s
    field limit, or bytes that are not UTF-8), the file is rewound and a
    per-cell ``csv`` + ``float()`` loop streams the body row by row,
    checks each row's cells left to right, and names the first bad one.
    A byte that is not UTF-8 is named before any other fault.

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
        If the header lacks ``z`` or ``x0``.
    TableParseError
        If a parsed cell is not numeric or a row lacks its id (message
        names row and column), a line is blank, the file is not UTF-8
        (message names the byte offset) or a field is longer than
        ``csv``'s limit (message names the line).
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
        try:
            with _text(src) as text:
                layout = _layout(_header(path, csv.reader(text)), blocks)
                cols = _parse_body(text, layout.dtype,
                                   [layout.pos[c] for c in layout.names])
            if cols is None:
                src.seek(0)
                with _text(src) as text:
                    cols = _parse_cells(path, text, layout)
        except (SchemaError, TableParseError, UnicodeDecodeError):
            _check_utf8(path, src)  # a bad byte is named before any fault
            raise
    h = None
    if "h" in cols.dtype.names:
        outside = np.flatnonzero(~np.isin(cols["h"], (0.0, 1.0)))
        if outside.size:
            raise TableValidationError(
                f"h value outside {{0,1}} in row {outside[0] + 2}")
        h = cols["h"].astype(np.int64)
    covariates = {name: cols[name] for name in layout.parsed}
    ids = tuple(cols["id"].tolist()) if "id" in cols.dtype.names else ()
    return HypothesisTable(z=cols["z"], X=covariates.get("X"),
                           Xa=covariates.get("Xa"), h_truth=h, ids=ids,
                           k=layout.k, q=layout.q)


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only when it must be.

    A field holding a comma, a double quote or a line break is wrapped in
    quotes with its quotes doubled, as ``csv``'s minimal quoting does.
    ``csv`` leaves a lone carriage return unquoted when the line
    terminator is a line feed, and ``csv.reader`` then splits the row
    there; it is quoted here too.
    """
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def write_table(table: HypothesisTable, path):
    """Write a table as CSV so that ``load_table`` round-trips it exactly.

    Floats are written in shortest round-trip form; the ``h`` column is
    emitted only when truth labels are present. The bytes are those of
    ``csv.writer``'s default dialect: ids quoted only where they must be
    (see ``_csv_field``) and lines ending in ``\\r\\n``.

    The rows are formatted ``_WRITE_BLOCK`` at a time, in one contiguous
    part per usable CPU (``_usable_cpus``) of at least ``_MIN_PART_ROWS``
    rows each; see ``_write_parts``. The bytes are the same however the
    rows are split.
    """
    table.require(*COVARIATE_BLOCKS)
    header = ["id", "z", *(f"x{j}" for j in range(table.k)),
              *(f"a{j}" for j in range(table.q))]
    if table.h_truth is not None:
        header.append("h")
    width = 1 + table.k + table.q

    def write_rows(out, lo, hi):
        for start in range(lo, hi, _WRITE_BLOCK):
            block = slice(start, min(start + _WRITE_BLOCK, hi))
            cells = list(map(repr, np.column_stack(
                (table.z[block], table.X[block], table.Xa[block])
            ).ravel().tolist()))
            rows = range(0, len(cells), width)
            tails = (["\r\n"] * len(rows) if table.h_truth is None else
                     [f",{h}\r\n" for h in table.h_truth[block].tolist()])
            out.writelines(
                f"{_csv_field(rid)},{','.join(cells[i:i + width])}{tail}"
                for rid, i, tail in zip(table.ids[block], rows, tails))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_parts(fh, write_rows, table.n)


def _write_parts(fh, write_rows, n: int) -> None:
    """Write rows ``0:n`` to the text file ``fh`` by ``write_rows(out, lo,
    hi)``, in contiguous parts: one per usable CPU, each of at least
    ``_MIN_PART_ROWS`` rows.

    ``fh`` is flushed, and one child is forked per part after the first.
    Each child writes its part into an anonymous ``tempfile.TemporaryFile``
    spool it inherits, and leaves by ``os._exit``; this process writes
    the first part itself, waits for every child, and copies the spools
    onto ``fh`` in order. Forking is left to ``_usable_cpus``, which
    allows more than one part only while this process has a single
    thread, so no copied thread can hold a lock. A spool that cannot be
    created keeps the write in this process. Every child has been waited
    for, and every spool closed, when this returns or raises; a child
    that fails raises ``OSError`` naming its rows.
    """
    parts = max(1, min(_usable_cpus(), n // _MIN_PART_ROWS))
    edges = [i * n // parts for i in range(parts + 1)]
    spools = []
    try:
        try:
            for _ in range(parts - 1):
                spools.append(tempfile.TemporaryFile())
        except OSError:  # no spool: the whole table in this process
            for spool in spools:
                spool.close()
            spools, edges = [], [0, n]
        fh.flush()
        pids = []
        try:
            for lo, hi, spool in zip(edges[1:], edges[2:], spools):
                pid = os.fork()
                if pid == 0:  # the child: it never returns
                    _write_child(write_rows, spool, lo, hi)
                pids.append(pid)
            write_rows(fh, edges[0], edges[1])
        except BaseException:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        for lo, hi, status in zip(edges[1:], edges[2:], statuses):
            if status:
                raise OSError(f"writing table rows {lo}-{hi - 1} failed in a "
                              f"forked process (exit code "
                              f"{os.waitstatus_to_exitcode(status)})")
        fh.flush()
        for spool in spools:
            spool.seek(0)
            shutil.copyfileobj(spool, fh.buffer)
    finally:
        for spool in spools:
            spool.close()


def _write_child(write_rows, spool, lo: int, hi: int):
    """In a forked child: write rows ``lo:hi`` into ``spool`` and leave
    the process by ``os._exit``, with status 0 only if every byte reached
    the spool. Nothing else of the parent's is flushed or run."""
    status = 1
    try:
        out = io.TextIOWrapper(spool, encoding="utf-8", newline="")
        write_rows(out, lo, hi)
        out.flush()
        status = 0
    except BaseException:  # to the inherited stderr, past its buffer
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


@dataclass(frozen=True, eq=False)
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
