"""Dataset ingestion.

Datasets are CSV files with a ``label,value`` header, UTF-8 (a leading
byte-order mark is allowed), one record per line, whose values are distinct
non-negative integers (equal values would break the threshold-descent rank
argument).  A file is read once: a plain one column by column from its bytes,
any other row by row through csv.  Either reader refuses its first bad line,
and one rule names a repeated value by its line and its first occurrence's.
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
# row when plain, refused or not, and near 235 B through csv.reader
# (tracemalloc, bytes included), so at the cap either stays near 1 GB or less.
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

    :func:`_column_pass` reads a plain file, :func:`_row_pass` any other (or
    one with a value of 2^63 or more); each refuses its first bad line after
    any repeat above it.  Then one Database of max(needed, n) qubits refuses a
    repeat, named by :func:`_refuse_repeat`, and only then a too small n.
    """
    if data.startswith(_BOM):
        data = data[len(_BOM):]
    rows = np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) - data.endswith(b"\n")
    if rows > ROWS_MAX:
        raise DataError(f"{source}: {rows} rows after the header; at most {ROWS_MAX} are read")
    labels, values, lines = _column_pass(data, source) or _row_pass(data, source)
    needed = _qubits_needed(int(values.max()), len(values))
    try:
        db = Database(labels, values, max(needed, n or 0))
    except DataError:
        _refuse_repeat(values, lines, source)
        raise
    if n is not None and n < needed:
        raise DataError(
            f"{source}: n={n} too small: {db.size} records with max value "
            f"{db.sorted_values[-1]} need at least {needed} qubits"
        )
    return db


def _qubits_needed(max_value: int, count: int) -> int:
    return max(1, max_value.bit_length(), math.ceil(math.log2(count)))


def _column_pass(data: bytes, source: str) -> tuple | None:
    """The labels, int64 values and lines of a plain file's records; None for any other file.

    A plain file has no ``"``, no lone ``\r``, a ``label,value`` header, one
    comma on every line and no field wider than ``csv.field_size_limit()``
    bytes, so its commas and newlines split it as :mod:`csv` does.  A value of
    1 to 18 ASCII digits is read from the bytes, any other by :func:`_value`;
    one of 2^63 or more makes this None.  Labels are decoded on their first
    read, and record i is on line i + 2.
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
            value = _value(data[starts[row]:stops[row]].decode("utf-8", "surrogatepass"), row + 2, source)
        except DataError:
            _refuse_repeat(values[:row], range(2, row + 2), source)
            raise
        if value >= 2**63:
            return None
        values[row] = value
    return functools.partial(_labels, data), values, range(2, len(values) + 2)


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


def _row_pass(data: bytes, source: str) -> tuple[list[str], np.ndarray, list[int]]:
    """The labels, values and lines of the records, read by :mod:`csv`; blank lines are skipped.

    A record's line is the physical line it ends on (``reader.line_num``), so
    a quoted field that spans lines does not shift later numbers.
    """
    reader = csv.reader(io.StringIO(data.decode("utf-8", "surrogatepass")))
    labels, values, lines = [], [], []
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{source}: empty file")
        try:
            if [h.strip().lower() for h in header] != ["label", "value"]:
                raise DataError(
                    f"{source}: line {reader.line_num}: expected header 'label,value', got {header!r}"
                )
            for row in reader:
                if row and (len(row) > 1 or row[0].strip()):  # a blank line is skipped
                    if len(row) != 2:
                        raise DataError(f"{source}: line {reader.line_num}: expected 2 fields, got {len(row)}")
                    values.append(_value(row[1], reader.line_num, source))
                    labels.append(row[0])
                    lines.append(reader.line_num)
        except DataError:  # read on: a csv error below the bad line wins, then a repeat above it
            for _ in reader:
                pass
            _refuse_repeat(np.array(values, dtype=object), lines, source)
            raise
    except csv.Error as exc:
        raise DataError(f"{source}: line {reader.line_num}: {exc}") from None
    if not values:
        raise DataError(f"{source}: no records")
    return labels, np.array(values, dtype=object), lines


def _value(raw: str, line: int, source: str) -> int:
    """The non-negative integer a value field spells; any other is refused by its line."""
    raw = raw.strip()  # str.strip: it also strips "\x1c" to "\x1f", which int() refuses
    try:
        value = int(raw)
    except ValueError:
        raise DataError(f"{source}: line {line}: value {raw!r} is not an integer") from None
    if value < 0:
        raise DataError(f"{source}: line {line}: value {value} is negative")
    return value


def _refuse_repeat(values: np.ndarray, lines, source: str) -> None:
    """Refuse the first value equal to an earlier one, naming both lines (record i's is ``lines[i]``)."""
    order = np.argsort(values, kind="stable")  # each run of equal values in record order
    ordered = values[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        row = repeats.min()
        raise DataError(
            f"{source}: line {lines[row]}: duplicate value {values[row]} (first seen on line "
            f"{lines[order[ordered.searchsorted(values[row])]]}); data values must be distinct"
        )


def titanic_database(n: int | None = None) -> Database:
    """The bundled 36-passenger age excerpt (values 1..63, n = 6 unless given)."""
    text = resources.files("qummsa.data").joinpath("titanic_ages.csv").read_text("utf-8")
    return parse_database(text, n=n, source="titanic_ages.csv")
