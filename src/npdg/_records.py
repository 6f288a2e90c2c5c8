"""The one JSON form and the one CSV form of every report record."""

from __future__ import annotations

import dataclasses

import numpy as np


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class Record:
    """Mix-in for dataclass records: ``to_dict`` converts every field.

    Arrays become nested lists, nested records their dicts, lists and
    tuples lists; a field declared with ``metadata={"json": False}`` is
    left out.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self) if f.metadata.get("json", True)}


def csv_text(header: str, row_format: str, columns) -> str:
    """A header line, then ``row_format % row`` for each row of the columns.

    Each array column is converted to Python scalars by one ``tolist()``.
    """
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    line = row_format + "\n"
    return header + "\n" + "".join([line % row for row in zip(*cells)])
