"""Dataset ingestion.

Datasets are CSV files with a ``label,value`` header, UTF-8 (a leading
byte-order mark is allowed), one record per line.  Values must be distinct
non-negative integers (duplicates are the one hypothesis the loader enforces
hard, since equal values would break the threshold-descent rank argument).
"""

from __future__ import annotations

import csv
import io
import math
from importlib import resources

import numpy as np

from .driver import Database
from .errors import DataError


def load_database(path_or_file, n: int | None = None) -> Database:
    """Read a label/value CSV into a Database.

    When n is omitted it is chosen as the smallest qubit count that covers
    every value and keeps N <= 2^n; that choice also satisfies
    2^(n-1) < N <= 2^n whenever the value range allows it.
    """
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
        name = getattr(path_or_file, "name", "<stream>")
    else:
        name = str(path_or_file)
        text = read_text(path_or_file, DataError)
    return parse_database(text, n=n, source=name)


def read_text(path, error: type[Exception]) -> str:
    """The file at ``path`` as UTF-8 text; bytes that are not UTF-8 raise ``error`` naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_database(text: str, n: int | None = None, source: str = "<string>") -> Database:
    """Parse label/value CSV text; one leading UTF-8 byte-order mark is ignored.

    A plain file is read by :func:`_column_pass` and checked by
    :class:`Database`.  Any other file, or a plain one with a negative or
    duplicate value or too small an n, is read by :func:`_row_pass`, which
    names the first bad line.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    columns = _column_pass(text)
    if columns is not None:
        labels, values = columns
        needed = _qubits_needed(int(values.max()), len(values))
        if n is None or n >= needed:
            try:
                return Database(labels, values, needed if n is None else n)
            except DataError:  # a negative or duplicate value: the row path names its line
                pass
    labels, values = _row_pass(text, source)
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


def _column_pass(text: str) -> tuple[list[str], np.ndarray] | None:
    """The label column and the int64 value column of a plain file; None for any other.

    A plain file has no ``"``, no lone ``\r``, a ``label,value`` header, one
    comma on every line and no field longer than ``csv.field_size_limit()``,
    so splitting on commas and newlines reads it as :mod:`csv` does.  numpy
    casts each value text with ``int()``; one it refuses, such as 2^63 and up,
    also makes this None.
    """
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if text.endswith("\n"):
        text = text[:-1]
    if not _one_comma_per_line(text):
        return None
    fields = text.replace("\n", ",").split(",")
    if [h.strip().lower() for h in fields[:2]] != ["label", "value"]:
        return None
    if len(text) > csv.field_size_limit() and max(map(len, fields)) > csv.field_size_limit():
        return None
    try:
        values = np.array(fields[3::2], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    return fields[2::2], values


def _one_comma_per_line(text: str) -> bool:
    """Whether ``text`` has two lines or more, each with exactly one comma.

    That holds when its separators, in order, alternate comma and newline.
    No byte of a multi-byte UTF-8 character is a comma or a newline.
    """
    encoded = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    seps = encoded[(encoded == ord(",")) | (encoded == ord("\n"))]
    return (
        seps.size >= 3 and seps.size % 2 == 1
        and (seps[0::2] == ord(",")).all() and (seps[1::2] == ord("\n")).all()
    )


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
