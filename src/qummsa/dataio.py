"""Dataset ingestion and delimited output helpers.

Datasets are CSV files with a ``label,value`` header, UTF-8, one record per
line.  Values must be distinct non-negative integers (duplicates are the one
hypothesis the loader enforces hard, since equal values would break the
threshold-descent rank argument).
"""

from __future__ import annotations

import csv
import io
import math
from importlib import resources

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
        with open(path_or_file, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    return parse_database(text, n=n, source=name)


def parse_database(text: str, n: int | None = None, source: str = "<string>") -> Database:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise DataError(f"{source}: empty file")
    header = [h.strip().lower() for h in rows[0]]
    if header != ["label", "value"]:
        raise DataError(f"{source}: line 1: expected header 'label,value', got {rows[0]!r}")
    records: list[tuple[str, int]] = []
    seen: dict[int, int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
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
        records.append((label, value))
    if not records:
        raise DataError(f"{source}: no records")

    max_value = max(v for _, v in records)
    needed = max(1, max_value.bit_length(), math.ceil(math.log2(len(records))))
    if n is None:
        n = needed
    elif n < needed:
        raise DataError(
            f"{source}: n={n} too small: {len(records)} records with max value "
            f"{max_value} need at least {needed} qubits"
        )
    return Database(tuple(records), n)


def titanic_database() -> Database:
    """The bundled 36-passenger age excerpt (values 1..63, n = 6)."""
    text = resources.files("qummsa.data").joinpath("titanic_ages.csv").read_text("utf-8")
    return parse_database(text, source="titanic_ages.csv")


def csv_stamp(invocation: str) -> str:
    """The reproducibility stamp comment line that opens every CSV output."""
    return f"# invocation: {invocation}\n"


def format_csv(rows: list[dict], invocation: str) -> str:
    """Render rows as CSV with a reproducibility stamp comment on top."""
    out = io.StringIO()
    out.write(csv_stamp(invocation))
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return out.getvalue()
