"""Rendering of report rows as aligned text, CSV, or JSON.

All three formats are fed from one canonical stringification so their
numeric content is identical: exact integers and rationals become decimal
strings (JSON numbers would silently lose precision past 2^53), floats
keep their shortest round-trip form, booleans map to true/false. Output
is byte-deterministic except for the optional generation-time header.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from fractions import Fraction

__all__ = ["render"]

FORMATS = ("plain", "json", "csv")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)  # "a/b", or "a" when integral
    if isinstance(value, float):
        return repr(value)
    if hasattr(value, "_mpf_"):  # an mpmath real, so mpmath is loaded already
        import mpmath as mp

        return mp.nstr(value, 17)
    return str(value)


def _json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "_mpf_"):  # an mpmath real
        return float(value)
    return _cell(value)


def _meta_line() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def render(rows: list[dict], columns: list[str], fmt: str, meta: bool) -> str:
    """Render rows (dicts sharing ``columns``) in the requested format."""
    if fmt == "json":
        document = {}
        if meta:
            document["generated"] = _meta_line()
        document["rows"] = [
            {col: _json_value(row[col]) for col in columns} for row in rows
        ]
        return json.dumps(document, indent=2) + "\n"

    header = f"# generated: {_meta_line()}\n" if meta else ""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[col]) for col in columns])
        return header + buffer.getvalue()

    if fmt != "plain":
        raise ValueError(f"unknown format {fmt!r}")
    table = [columns] + [[_cell(row[col]) for col in columns] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        for line in table
    ]
    return header + "\n".join(lines) + "\n"
