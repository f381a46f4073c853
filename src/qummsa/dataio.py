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
from operator import itemgetter

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

    A well-formed file is read by :func:`_column_records`; anything else goes
    through :func:`_checked_records`, which names the first bad line.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise DataError(f"{source}: empty file")
    header = [h.strip().lower() for h in rows[0]]
    if header != ["label", "value"]:
        raise DataError(f"{source}: line 1: expected header 'label,value', got {rows[0]!r}")
    body = rows[1:]
    labels, values = _column_records(body) or _checked_records(body, source)
    if not values:
        raise DataError(f"{source}: no records")

    max_value = max(values)
    needed = max(1, max_value.bit_length(), math.ceil(math.log2(len(values))))
    if n is None:
        n = needed
    elif n < needed:
        raise DataError(
            f"{source}: n={n} too small: {len(values)} records with max value "
            f"{max_value} need at least {needed} qubits"
        )
    return Database(labels, values, n)


def _column_records(body: list[list[str]]) -> tuple[list[str], list[int]] | None:
    """The label and value columns of a well-formed body, one pass each; None otherwise."""
    if set(map(len, body)) != {2}:
        return None
    try:
        values = list(map(int, map(itemgetter(1), body)))
    except ValueError:
        return None
    if min(values) < 0 or len(set(values)) != len(values):
        return None
    return list(map(itemgetter(0), body)), values


def _checked_records(body: list[list[str]], source: str) -> tuple[list[str], list[int]]:
    """Row by row: skip blank lines, and report the first bad line by its number."""
    labels: list[str] = []
    values: list[int] = []
    seen: dict[int, int] = {}
    for lineno, row in enumerate(body, start=2):
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
    return labels, values


def titanic_database() -> Database:
    """The bundled 36-passenger age excerpt (values 1..63, n = 6)."""
    text = resources.files("qummsa.data").joinpath("titanic_ages.csv").read_text("utf-8")
    return parse_database(text, source="titanic_ages.csv")
