"""CSV serialization of experiment tables.

Every emitted CSV is re-ingestable: floats are written with ``repr`` so a
read-write cycle reproduces the values exactly, missing values are empty
fields, booleans are ``0`` and ``1``, and infinities round-trip through
``float("inf")``.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_rows_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_rows_csv(path: str | Path) -> list[list[str]]:
    """Every line of the file as its fields, the header line first."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))
