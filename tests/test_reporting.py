"""Rendering: mpmath reals in every format, and byte-stable reports."""

import json

import mpmath as mp
import pytest
from click.testing import CliRunner

from sqtotient.cli import main
from sqtotient.reporting import render

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
