"""Dataset ingestion.

Datasets are CSV files with a ``label,value`` header, UTF-8 (a leading
byte-order mark is allowed), one record per line.  Values must be distinct
non-negative integers (duplicates are the one hypothesis the loader enforces
hard, since equal values would break the threshold-descent rank argument).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from importlib import resources

import numpy as np

from .driver import Database
from .errors import DataError


# Most rows a dataset may have after its header, counted from its newlines
# before any column is allocated.  Loading 2^18 short rows peaked near 55 B a
# row when plain and near 500 B through csv.reader (tracemalloc, bytes
# included), so at the cap either stays near 2 GB or less.
ROWS_MAX = 2**22

_BOM = "\ufeff".encode("utf-8")
_DIGITS_MAX = 18  # every run of 18 ASCII digits fits in int64


def load_database(path_or_file, n: int | None = None) -> Database:
    """Read a label/value CSV into a Database.

    When n is omitted it is chosen as the smallest qubit count that covers
    every value and keeps N <= 2^n; that choice also satisfies
    2^(n-1) < N <= 2^n whenever the value range allows it.
    """
    if not hasattr(path_or_file, "read"):
        return _parse(_read_utf8(path_or_file, DataError), n, str(path_or_file))
    data, source = path_or_file.read(), getattr(path_or_file, "name", "<stream>")
    if isinstance(data, str):
        return parse_database(data, n, source)
    return _parse(_utf8(data, source, DataError), n, source)


def read_text(path, error: type[Exception]) -> str:
    """The file at ``path`` as UTF-8 text; bytes that are not UTF-8 raise ``error`` naming it."""
    return _read_utf8(path, error).decode("utf-8")


def _read_utf8(path, error: type[Exception]) -> bytes:
    """The bytes of the file at ``path``, checked to be UTF-8."""
    with open(path, "rb") as fh:
        return _utf8(fh.read(), path, error)


def _utf8(data: bytes, source, error: type[Exception]) -> bytes:
    """``data``, checked to be UTF-8; other bytes raise ``error`` naming ``source`` and the byte."""
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return data


def parse_database(text: str, n: int | None = None, source: str = "<string>") -> Database:
    """Parse label/value CSV text; one leading UTF-8 byte-order mark is ignored."""
    return _parse(text.encode("utf-8", "surrogatepass"), n, source)


def _parse(data: bytes, n: int | None, source: str) -> Database:
    """The Database of CSV bytes that are UTF-8, or text encoded with surrogates passed.

    A plain file is read by :func:`_column_pass` and checked by
    :class:`Database`, and its labels are decoded on their first read.  Any
    other file, or a plain one with a negative or duplicate value or too small
    an n, is read by :func:`_row_pass`, which names the first bad line.
    """
    if data.startswith(_BOM):
        data = data[len(_BOM):]
    rows = np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) - data.endswith(b"\n")
    if rows > ROWS_MAX:
        raise DataError(f"{source}: {rows} rows after the header; at most {ROWS_MAX} are read")
    values = _column_pass(data)
    if values is not None:
        needed = _qubits_needed(int(values.max()), len(values))
        if n is None or n >= needed:
            try:
                return Database(functools.partial(_labels, data), values, needed if n is None else n)
            except DataError:  # a duplicate value: the row path names its line
                pass
    labels, values = _row_pass(data.decode("utf-8", "surrogatepass"), source)
    max_value = max(values)
    needed = _qubits_needed(max_value, len(values))
    if n is None:
        n = needed
    elif n < needed:
        raise DataError(
            f"{source}: n={n} too small: {len(values)} records with max value "
            f"{max_value} need at least {needed} qubits"
        )
    return Database(labels, values, n)


def _qubits_needed(max_value: int, count: int) -> int:
    return max(1, max_value.bit_length(), math.ceil(math.log2(count)))


def _column_pass(data: bytes) -> np.ndarray | None:
    """The int64 value column of a plain file's bytes; None for any other file.

    A plain file has no ``"``, no lone ``\r``, a ``label,value`` header, one
    comma on every line and no field wider than ``csv.field_size_limit()``
    bytes, so its commas and newlines split it as :mod:`csv` does.  A field
    has no fewer bytes than characters, so a wider one is left to csv, which
    counts its characters.  A value of 1 to 18 ASCII digits is read from the
    bytes; any other is decoded and read by ``int()``.  One that ``int()``
    refuses, or that is negative or 2^63 and up, also makes this None.
    """
    if b'"' in data or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    u8 = np.frombuffer(data, dtype=np.uint8)
    end = len(data) - data.endswith(b"\n")  # one final newline ends the last line
    # one comma on every line of two or more: the separators alternate, from a
    # comma to a comma; no byte of a multi-byte UTF-8 character is either
    seps = np.flatnonzero((u8[:end] == ord(",")) | (u8[:end] == ord("\n")))
    kinds = u8[seps]
    if not (
        seps.size >= 3 and seps.size % 2 == 1
        and (kinds[0::2] == ord(",")).all() and (kinds[1::2] == ord("\n")).all()
    ):
        return None
    header = data[:seps[1]].decode("utf-8", "surrogatepass").split(",")
    if [h.strip().lower() for h in header] != ["label", "value"]:
        return None
    limit = csv.field_size_limit()  # a gap between separators is its field's width + 1
    if end > limit and max(seps[0] + 1, np.diff(seps).max(), end - seps[-1]) > limit + 1:
        return None  # a field wider than limit bytes: csv counts its characters
    starts = seps[2::2] + 1  # each record's value field, after its comma
    stops = np.empty_like(starts)
    stops[:-1] = seps[3::2]
    stops[-1] = end
    del seps, kinds
    if b"\r" in data:  # a CRLF's carriage return ends the value field
        stops -= u8[stops - 1] == ord("\r")
    values = _digits(u8, starts, stops)
    # the rest: signs, spaces, underscores, other digits, 19 digits and more, empty
    for row in np.flatnonzero(values < 0).tolist():
        try:
            value = int(data[starts[row]:stops[row]].decode("utf-8", "surrogatepass"))
        except ValueError:
            return None
        if not 0 <= value < 2**63:
            return None
        values[row] = value
    return values


def _digits(u8: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Each field ``u8[start:stop]`` of 1 to 18 ASCII digits as an int, and -1 for any other.

    Horner's rule reads the fields right-aligned, a byte of each per pass,
    and a byte before a field's start counts as a leading 0.  Memory is a few
    arrays of one entry per field.
    """
    widths = stops - starts
    other = (widths == 0) | (widths > _DIGITS_MAX)
    passes = min(int(widths.max()), _DIGITS_MAX)
    del widths
    values = np.zeros(len(starts), dtype=np.int64)
    at = np.empty_like(stops)
    for back in range(passes, 0, -1):
        live = np.subtract(stops, back, out=at) >= starts
        digit = u8[at] - ord("0")  # wraps below "0"; a negative offset wraps too, and is not live
        other |= live & (digit > 9)
        digit *= live
        values *= 10
        values += digit
    values[other] = -1
    return values


def _labels(data: bytes) -> tuple[str, ...]:
    """The label column of a plain file's bytes: each record line up to its comma."""
    lines = data.decode("utf-8", "surrogatepass").split("\n")[1:]
    if not lines[-1]:  # the final newline
        del lines[-1]
    return tuple(line[:line.index(",")] for line in lines)


def _row_pass(text: str, source: str) -> tuple[list[str], list[int]]:
    """Row by row through :mod:`csv`: skip blank lines, and report the first bad line by its number.

    A record is numbered by the physical line it ends on, as ``reader.line_num``
    counts them, so a quoted field that spans lines does not shift later numbers.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise DataError(f"{source}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{source}: empty file")
    header_line, header_row = rows[0]
    if [h.strip().lower() for h in header_row] != ["label", "value"]:
        raise DataError(
            f"{source}: line {header_line}: expected header 'label,value', got {header_row!r}"
        )
    labels: list[str] = []
    values: list[int] = []
    seen: dict[int, int] = {}
    for lineno, row in rows[1:]:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"{source}: line {lineno}: expected 2 fields, got {len(row)}")
        label, raw = row[0], row[1].strip()
        try:
            value = int(raw)
        except ValueError:
            raise DataError(f"{source}: line {lineno}: value {raw!r} is not an integer") from None
        if value < 0:
            raise DataError(f"{source}: line {lineno}: value {value} is negative")
        if value in seen:
            raise DataError(
                f"{source}: line {lineno}: duplicate value {value} "
                f"(first seen on line {seen[value]}); data values must be distinct"
            )
        seen[value] = lineno
        labels.append(label)
        values.append(value)
    if not values:
        raise DataError(f"{source}: no records")
    return labels, values


def titanic_database(n: int | None = None) -> Database:
    """The bundled 36-passenger age excerpt (values 1..63, n = 6 unless given)."""
    text = resources.files("qummsa.data").joinpath("titanic_ages.csv").read_text("utf-8")
    return parse_database(text, n=n, source="titanic_ages.csv")
