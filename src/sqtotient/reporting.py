"""Rendering of report rows as aligned text, CSV, or JSON.

All three formats are fed from one canonical stringification so their
numeric content is identical: exact integers and rationals become decimal
strings (JSON numbers would silently lose precision past 2^53), floats
keep their shortest round-trip form, booleans map to true/false. Output
is byte-deterministic except for the optional generation-time header.

``write_rows`` streams: it takes rows as sequences in column order and
writes them to the stream in batches of 1,024 rows. Each batch is
formatted one column at a time (``_cells``): a column of ints below
``_STR_BOUND`` in size goes to decimal in one ``map(str, ...)``, any other
column cell by cell through ``_cell`` (or ``_json_value`` for JSON). CSV
writes a batch of such int columns by joining the strings, as no decimal
string needs quoting, and any other batch through ``csv.writer``; JSON
writes each batch through ``json.dumps``, in the bytes that
``json.dumps(document, indent=2)`` gives for the whole document. Plain
text aligns its columns, so it holds one list of cell strings per column,
but not the text, until every row has arrived. ``render`` is
``write_rows`` into a string.

Every integer goes to decimal through ``_int_str``. Below 2^13 bits
(2,467 digits, under the interpreter's default limit of 4,300 digits for
``str`` of an int) that is ``str``, which is quadratic in the digit count.
From there up it splits the integer at powers of two and rebuilds it in an
exact ``decimal`` context, as CPython 3.12's ``_pylong`` does; libmpdec
multiplies large operands by a number-theoretic transform. On a 2-vCPU VM
(Python 3.11.7), best of 3, it equalled ``str`` at 8,192 bits and was 10%
faster at 14,000-30,000 bits; it took 2.3 ms against 5.1 ms at 60,000
bits, 21 ms against 132 ms at 300,000 and 0.11 s against 1.43 s at 10^6.
So rendering never depends on ``sys.set_int_max_str_digits``.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
from datetime import datetime, timezone
from fractions import Fraction
from itertools import islice, repeat

__all__ = ["render", "write_rows"]

FORMATS = ("plain", "json", "csv")

# str() below this many bits; divide and conquer from here, with leaves of
# at most _LEAF_BITS converted by Decimal(int)
_STR_BITS = 1 << 13
_STR_BOUND = 1 << _STR_BITS
_LEAF_BITS = 1 << 11

# rows per write to the stream, each batch formatted one column at a time
# into one string. For phi -k 5 --range 65568 on a 2-vCPU VM (Python
# 3.11.7), one json.dumps per row took the writer from 0.38 to 0.96 s of
# CPU, and one write per CSV row into a block-buffered pipe from 0.12 to
# 0.21 s. click's stdout is line-buffered when stdout's error handler is
# not "strict" (under the C or POSIX locale), and there a write per row is
# a system call per row. By columns, with the all-int CSV batch joined
# without csv.writer, the CSV writer took 45-61 ms there against 99-197 ms
# cell by cell, and plain text 62-86 ms against 116-233 ms; a batch's
# temporaries are its column tuples, one string per row and the text.
# A batch holds its text: with 4,096 rows, phi -k 1000 --range 32767 (15,000-
# bit values) peaked at 143-164 MB of RSS in CSV and JSON, 100-108 MB here
_BATCH_ROWS = 1 << 10

_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded],
)

# 2^w as an exact Decimal, for w a power of two from _LEAF_BITS up; the
# splits are at powers of two so that every conversion shares these
_POW2: dict[int, decimal.Decimal] = {}


def _pow2(w: int) -> decimal.Decimal:
    power = _POW2.get(w)
    if power is None:
        if w <= _LEAF_BITS:
            power = decimal.Decimal(1 << w)
        else:
            half = _pow2(w >> 1)
            power = _EXACT.multiply(half, half)
        _POW2[w] = power
    return power


def _to_decimal(n: int, bits: int) -> decimal.Decimal:
    """n >= 0 of at most ``bits`` bits as an exact Decimal."""
    if bits <= _LEAF_BITS:
        return decimal.Decimal(n)
    w = 1 << ((bits - 1).bit_length() - 1)  # the largest power of two below bits
    hi = n >> w
    lo = n - (hi << w)
    return _EXACT.add(_EXACT.multiply(_to_decimal(hi, bits - w), _pow2(w)), _to_decimal(lo, w))


def _int_str(n: int) -> str:
    """``str(n)`` for an int, in subquadratic time and at any size."""
    if -_STR_BOUND < n < _STR_BOUND:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    return _EXACT.to_sci_string(_to_decimal(n, n.bit_length()))


def _write_cost(rows: float, cells, fmt: str, work=(0.0, 0.0)) -> tuple[float, float]:
    """Predicted CPU seconds and peak bytes of ``write_rows``, plus ``work``'s.

    ``cells`` holds the bit length of each cell of a row (53 for a float).
    A cell takes 6.3e-7 s (CSV) to 1.8e-6 s (JSON), fitted on small ints, and
    ``_int_str`` 2e-12 s x b^2 below 32,000 bits and 6e-10 s x b^1.4 above.
    CSV and JSON hold three copies of a batch of text; plain text holds
    every cell string, 49 bytes plus its digits, until the last row.
    """
    per_cell = {"plain": 8.5e-7, "csv": 6.3e-7, "json": 1.8e-6}[fmt]
    seconds = rows * sum(per_cell + min(2e-12 * b * b, 6e-10 * b**1.4) for b in cells)
    text = sum(0.302 * b + 3 for b in cells)
    held = rows * (text + 49 * len(cells) + 64) if fmt == "plain" else 0
    return work[0] + seconds, work[1] + held + 3 * min(rows, _BATCH_ROWS) * text


def _cell(value) -> str:
    if type(value) is int:  # most cells, so tested first
        return _int_str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return _int_str(value)
    if isinstance(value, Fraction):
        # "a/b", or "a" when integral, as str(Fraction) gives
        if value.denominator == 1:
            return _int_str(value.numerator)
        return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"
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


def _batches(rows):
    rows = iter(rows)
    while batch := list(islice(rows, _BATCH_ROWS)):
        yield batch


def _cells(batch, convert) -> tuple[list, bool]:
    """A batch's cell strings, one iterator per column, and whether every column is of ints.

    A column of ints (not bools) under ``_STR_BOUND`` in size goes through
    ``str``, which is ``_cell`` of each of them; any other column goes
    through ``convert``. The strings are made as the caller reads them.
    """
    cells = []
    integral = True
    for column in zip(*batch):
        if {*map(type, column)} == {int} and -_STR_BOUND < min(column) and max(column) < _STR_BOUND:
            cells.append(map(str, column))
        else:
            cells.append(map(convert, column))
            integral = False
    return cells, integral


def _write_json(stream, rows, columns, meta):
    # the bytes of json.dumps({"generated": ..., "rows": [...]}, indent=2)
    stream.write("{\n")
    if meta:
        stream.write(f'  "generated": {json.dumps(_meta_line())},\n')
    stream.write('  "rows": [')
    separator = "\n    "
    for batch in _batches(rows):
        cells, _ = _cells(batch, _json_value)
        text = json.dumps([dict(zip(columns, row)) for row in zip(*cells)], indent=2)
        # drop the list's "[\n  " and "\n]" and indent it one level deeper;
        # json escapes newlines inside strings, so only structural ones move
        stream.write(separator + text[4:-2].replace("\n", "\n  "))
        separator = ",\n    "
    # an empty list is "[]", a non-empty one closes on its own line
    stream.write("]\n}\n" if separator == "\n    " else "\n  ]\n}\n")


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _write_csv(stream, rows, columns):
    stream.write(_csv_text([columns]))
    for batch in _batches(rows):
        cells, integral = _cells(batch, _cell)
        if integral:  # a decimal string never needs quoting
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
        else:
            stream.write(_csv_text(zip(*cells)))


def _write_plain(stream, rows, columns):
    table = [[name] for name in columns]
    for batch in _batches(rows):
        for column, cells in zip(table, _cells(batch, _cell)[0]):
            column += cells
    widths = [max(map(len, column)) for column in table]
    for start in range(0, len(table[0]), _BATCH_ROWS):
        padded = (map(str.ljust, column[start : start + _BATCH_ROWS], repeat(width)) for column, width in zip(table, widths))
        stream.write("\n".join(map(str.rstrip, map("  ".join, zip(*padded)))) + "\n")


def write_rows(stream, rows, columns: list[str], fmt: str, meta: bool) -> None:
    """Write rows (sequences in the order of ``columns``) to a text stream."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if not columns:
        raise ValueError("rows need at least one column")
    if fmt == "json":
        _write_json(stream, rows, columns, meta)
        return
    if meta:
        stream.write(f"# generated: {_meta_line()}\n")
    if fmt == "csv":
        _write_csv(stream, rows, columns)
    else:
        _write_plain(stream, rows, columns)


def render(rows: list[dict], columns: list[str], fmt: str, meta: bool) -> str:
    """Render rows (dicts sharing ``columns``) in the requested format."""
    buffer = io.StringIO()
    write_rows(buffer, ([row[col] for col in columns] for row in rows), columns, fmt, meta)
    return buffer.getvalue()
