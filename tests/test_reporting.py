"""Rendering: mpmath reals in every format, byte-stable reports, the
streaming writer against the build-then-join renderer it replaced, and
the decimal conversion of large integers."""

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqtotient
from sqtotient.cli import main
from sqtotient.reporting import _BATCH_ROWS, _LEAF_BITS, _STR_BITS, _int_str, render, write_rows

VALUES = [mp.mpf(1) / 3, mp.mpf(2) ** -40, -mp.pi, mp.mpf(0)]


@pytest.mark.parametrize("value", VALUES, ids=str)
def test_mpf_cells(value):
    with mp.workdps(30):
        value = +value
        rows = [{"x": value}]
        expected = mp.nstr(value, 17)
        assert render(rows, ["x"], "plain", meta=False) == f"x\n{expected}\n"
        assert render(rows, ["x"], "csv", meta=False) == f"x\n{expected}\n"
        assert json.loads(render(rows, ["x"], "json", meta=False)) == {"rows": [{"x": float(value)}]}


# report constants -k 4 --tol 1e-9 --no-meta, byte for byte: the mpmath
# reals in it are recognised by their _mpf_ attribute, not by isinstance
CONSTANTS_K4 = {
    "plain": (
        "form               k  value                prime_bound  tail_bound\n"
        "euler_product      4  0.58461398599455465  64           5.9064643409241725e-11\n"
        "corollary_product  4  0.11692279719891093  64           1.1812928681848345e-11\n"
    ),
    "csv": (
        "form,k,value,prime_bound,tail_bound\n"
        "euler_product,4,0.58461398599455465,64,5.9064643409241725e-11\n"
        "corollary_product,4,0.11692279719891093,64,1.1812928681848345e-11\n"
    ),
    "json": json.dumps(
        {
            "rows": [
                {
                    "form": "euler_product",
                    "k": "4",
                    "value": 0.5846139859945546,
                    "prime_bound": "64",
                    "tail_bound": 5.906464340924173e-11,
                },
                {
                    "form": "corollary_product",
                    "k": "4",
                    "value": 0.11692279719891092,
                    "prime_bound": "64",
                    "tail_bound": 1.1812928681848345e-11,
                },
            ]
        },
        indent=2,
    )
    + "\n",
}


@pytest.mark.parametrize("fmt", sorted(CONSTANTS_K4))
def test_constants_report_bytes(fmt):
    result = CliRunner().invoke(
        main, ["report", "constants", "-k", "4", "--tol", "1e-9", "--no-meta", "--format", fmt]
    )
    assert result.exit_code == 0
    assert result.output == CONSTANTS_K4[fmt]


@contextlib.contextmanager
def no_int_digit_limit():
    """Let str() convert ints of any size, as the reference renderer needs."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# The renderer the streaming writer replaced, kept as the oracle: it builds
# every cell string and the whole text, and converts ints with str().
def reference_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if hasattr(value, "_mpf_"):
        return mp.nstr(value, 17)
    return str(value)


def reference_json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "_mpf_"):
        return float(value)
    return reference_cell(value)


def reference_render(rows, columns, fmt, meta):
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if fmt == "json":
        document = {}
        if meta:
            document["generated"] = stamp
        document["rows"] = [{col: reference_json_value(row[col]) for col in columns} for row in rows]
        return json.dumps(document, indent=2) + "\n"
    header = f"# generated: {stamp}\n" if meta else ""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([reference_cell(row[col]) for col in columns])
        return header + buffer.getvalue()
    table = [columns] + [[reference_cell(row[col]) for col in columns] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        for line in table
    ]
    return header + "\n".join(lines) + "\n"


# ints of 1,200 to 7,400 digits, mostly past the interpreter's default str() limit
big_ints = st.integers(_STR_BITS // 2, 3 * _STR_BITS).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))
texts = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "\u00e9", "\t", ";"]), max_size=6)
cells = st.one_of(
    big_ints,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.fractions(),
    st.builds(Fraction, big_ints, big_ints.filter(bool)),
    st.floats(),
    st.floats().map(mp.mpf),
    texts,
    st.just(""),
)


@st.composite
def tables(draw):
    columns = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    width = len(columns)
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=5))
    return columns, rows


class TestStreamingWriter:
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @settings(max_examples=150, deadline=None)
    @given(table=tables())
    @example(table=(["x"], []))
    @example(table=(["x"], [[""]]))
    @example(table=(["", "y"], [["", ""], ["a,b", '"q"']]))
    def test_equals_the_reference_renderer(self, fmt, table):
        self.check(fmt, *table)

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_past_the_default_digit_limit(self, fmt):
        # hypothesis takes the repr of an explicit example, which str() of
        # these would refuse, so they are checked here
        self.check(fmt, ["x", "y"], [[10**5000, Fraction(10**4400, 3)], [-(10**5000) + 1, Fraction(-1, 10**4301)]])

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_across_batches(self, fmt):
        # the property draws at most five rows; CSV and JSON are written in batches
        rows = [[n, Fraction(n, 3), f"r{n}"] for n in range(2 * _BATCH_ROWS + 1)]
        self.check(fmt, ["n", "third", "label"], rows)

    @staticmethod
    def check(fmt, columns, rows):
        records = [dict(zip(columns, row)) for row in rows]
        with no_int_digit_limit():
            expected = reference_render(records, columns, fmt, meta=False)
        buffer = io.StringIO()
        write_rows(buffer, iter(rows), columns, fmt, meta=False)
        assert buffer.getvalue() == expected
        assert render(records, columns, fmt, meta=False) == expected

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_meta_header(self, fmt):
        text = render([{"x": 1}], ["x"], fmt, meta=True)
        first = text.splitlines()[1 if fmt == "json" else 0]
        assert first.startswith('  "generated": "' if fmt == "json" else "# generated: ")
        assert text.replace(first + "\n", "") == render([{"x": 1}], ["x"], fmt, meta=False)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writes_before_the_last_row_arrives(self, fmt):
        buffer = io.StringIO()
        written_early = []

        def rows():
            for n in range(1, 20001):
                if n == 20000:
                    written_early.append(buffer.tell())
                yield (n, n * n)

        write_rows(buffer, rows(), ["n", "square"], fmt, meta=False)
        assert 0 < written_early[0] < buffer.tell()

    def test_unknown_format_writes_nothing(self):
        buffer = io.StringIO()
        with pytest.raises(ValueError, match="unknown format"):
            write_rows(buffer, [(1,)], ["x"], "xml", meta=False)
        assert buffer.getvalue() == ""


class TestIntStr:
    """The decimal conversion that every integer cell goes through."""

    def test_small(self):
        for n in (0, 1, -1, 10, -(10**18), 2**63 - 1):
            assert _int_str(n) == str(n)

    @pytest.mark.parametrize(
        "bits", [_LEAF_BITS - 1, _LEAF_BITS, _LEAF_BITS + 1, _STR_BITS - 1, _STR_BITS, _STR_BITS + 1, 2 * _STR_BITS, 3 * _STR_BITS + 7]
    )
    def test_around_the_thresholds(self, bits):
        with no_int_digit_limit():
            for n in (2**bits - 1, 2**bits, 2**bits + 1):
                assert _int_str(n) == str(n)
                assert _int_str(-n) == str(-n)

    @settings(max_examples=25, deadline=None)
    @given(bits=st.integers(1, 200_000), seed=st.integers(0, 2**32))
    def test_random_sizes(self, bits, seed):
        n = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
        with no_int_digit_limit():
            assert _int_str(n) == str(n)
            assert _int_str(-n) == str(-n)

    def test_a_million_bits(self):
        n = random.Random(2014).getrandbits(10**6)
        with no_int_digit_limit():
            assert _int_str(n) == str(n)

    def test_needs_no_raised_digit_limit(self):
        # a fresh interpreter, since this one may have raised the limit
        script = (
            "import sys\n"
            "from sqtotient.reporting import render\n"
            "from sqtotient.cli import main\n"
            "assert render([{'x': 10**5000}], ['x'], 'csv', False) == 'x\\n1' + '0' * 5000 + '\\n'\n"
            "main(['phi', '-k', '1000', '-n', '1000000007'], standalone_mode=False)\n"
            "print(sys.get_int_max_str_digits())\n"
        )
        src = str(Path(sqtotient.__file__).parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        count, limit = result.stdout.split()
        assert limit == "4300"
        assert count.isdigit() and len(count) > 4300
