"""Verification suites: failure reporting, case counts and limit caps."""

import re

import pytest
from click.testing import CliRunner

import sqtotient.verify as verify
from sqtotient import BudgetExceededError
from sqtotient.averaging import ConvolutionReport
from sqtotient.cli import main
from sqtotient.verify import SUITES, run_suite


def _off_by_one_at_7(real):
    def fake(k, *args):
        value = real(k, *args)
        return value + 1 if args[-1] == 7 else value

    return fake


def _table_off_by_one_at_7(real):
    def fake(k, x):
        values = real(k, x)
        values[7] += 1
        return values

    return fake


def _convolution_fails_at_7_for_k4(real):
    def fake(k, limit):
        if k == 4:
            return ConvolutionReport(k=k, limit=limit, ok=False, first_mismatch=(7, 1, 2))
        return real(k, limit)

    return fake


def _kernel_off_by_one_at_8(real):
    def fake(k, n):
        counts = list(real(k, n))
        counts[1] += n == 8
        return counts

    return fake


def _block_sum_off_by_one_at(n):
    def patch(real):
        def fake(lo, hi):
            sums = real(lo, hi)
            if lo <= n <= hi:
                sums[n - lo] += 1
            return sums

        return fake

    return patch


# (suite, limit, callee patched in sqtotient.verify, patch, first counterexample per failing check)
FAULTS = [
    (
        "rho", 20, "rho", _off_by_one_at_7,
        {
            "prime-power formula vs enumeration": "k=1 lam=0 n=7: formula 2 != census 1",
            "general-modulus formula vs enumeration": "k=1 lam=0 n=7: formula 2 != census 1",
            "residue-count multiplicativity": "k=1 lam=0 m=2 n=7",
        },
    ),
    (
        "rho", 20, "_power_census", _kernel_off_by_one_at_8,
        {"closed forms at moduli 2, 4, 8": "k=1 lam=1 mod 8: closed 4 != kernel 5"},
    ),
    (
        "phi", 30, "phi_k", _off_by_one_at_7,
        {"three-route agreement": "k=1 n=7: closed 7, enumerated 6, residue-sum 6"},
    ),
    (
        "identities", 200, "phi_k", _off_by_one_at_7,
        {"power identity": "k=1 n=7 m=1", "Jordan route": "k=4 n=7"},
    ),
    (
        "identities", 200, "phi_k_table", _table_off_by_one_at_7,
        {
            "multiplicativity": "k=1 m=2 n=7",
            "divisibility along divisors": "k=1 n=7 m=14",
            "gcd identity": "k=1 m=2 n=7",
            "power identity": "k=1 n=7 m=1",
            "parity": "k=1 n=7",
        },
    ),
    (
        "convolution", 50, "convolution_check", _convolution_fails_at_7_for_k4,
        {"convolution identity k=4": "n=7: expected 1, convolution 2"},
    ),
    (
        "menon-classic", 50, "_gcd_sum_block", _block_sum_off_by_one_at(7),
        {"unit gcd-sum identity": "n=7: 13 != 12"},
    ),
]


@pytest.mark.parametrize(
    "suite, limit, callee, patch, failures", FAULTS, ids=[f"{f[0]}-{f[2]}" for f in FAULTS]
)
def test_first_counterexample_is_reported(monkeypatch, suite, limit, callee, patch, failures):
    monkeypatch.setattr(verify, callee, patch(getattr(verify, callee)))
    result = run_suite(suite, limit)
    assert not result.ok
    reported = {c.name: c.detail for c in result.checks if not c.ok}
    assert reported == {name: f"first counterexample: {case}" for name, case in failures.items()}


def test_fault_at_the_first_row_of_a_later_block_is_reported(monkeypatch):
    # 256 opens the second block of gcd tables: rows 1..255 fill the first
    assert list(verify._gcd_blocks(600))[:2] == [(1, 255), (256, 413)]
    monkeypatch.setattr(verify, "_gcd_sum_block", _block_sum_off_by_one_at(256)(verify._gcd_sum_block))
    (check,) = run_suite("menon-classic", 600).checks
    assert check.detail == "first counterexample: n=256: 1153 != 1152"


def test_counts_match_the_checked_cases():
    details = [c.detail for c in run_suite("rho", 20).checks]
    counted = [details[i].rsplit(": ", 1)[1] for i in (2, 3, 4, 5)]
    assert counted == [
        f"{checked} cases checked, {skipped} skipped by the guard of {guard} tuples"
        for checked, skipped, guard in ((72, 0, 10**8), (105, 15, 10**6), (290, 250, 10**6), (23, 1, 10**8))
    ]
    # the kernel is compared at every (modulus, k), with no guard
    assert details[0] == "k <= 32, all odd residues; Gauss sums, trig forms and census kernel: 96 cases checked"
    assert details[1] == "n <= 20, k <= 8: 160 cases checked"
    (phi,) = run_suite("phi", 30).checks
    assert phi.detail == "n <= 30, k <= 4: 120 cases checked, 0 skipped by the guard of 100000000 tuples"


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_check_reports_its_counts(suite):
    for check in run_suite(suite, 10).checks:
        assert check.ok
        assert re.search(r": \d+ cases checked(, \d+ skipped by the guard of \d+ tuples)?$", check.detail), check


@pytest.mark.parametrize("suite", ["phi", "convolution", "menon-classic"])
def test_limit_cap_refuses_before_any_work(monkeypatch, suite):
    _, largest = SUITES[suite]
    monkeypatch.setattr(verify, "SUITES", {**SUITES, suite: (None, largest)})
    with pytest.raises(BudgetExceededError) as info:
        run_suite(suite, largest + 1)
    assert (info.value.required, info.value.budget) == (largest + 1, largest)


# Two verify commands byte for byte, so that the coverage --max-enum sets
# cannot drift unseen: every skip count below comes from it
PINNED_OUTPUT = {
    "rho --limit 12 --max-enum 100000 --format json": """{
  "rows": [
    {
      "suite": "rho",
      "check": "closed forms at moduli 2, 4, 8",
      "ok": true,
      "detail": "k <= 32, all odd residues; Gauss sums, trig forms and census kernel: 96 cases checked"
    },
    {
      "suite": "rho",
      "check": "census totals n^k",
      "ok": true,
      "detail": "n <= 12, k <= 8: 96 cases checked"
    },
    {
      "suite": "rho",
      "check": "prime-power formula vs enumeration",
      "ok": true,
      "detail": "odd prime powers <= 12, powers of two <= 12, every residue, k <= 6: 43 cases checked, 5 skipped by the guard of 100000 tuples"
    },
    {
      "suite": "rho",
      "check": "general-modulus formula vs enumeration",
      "ok": true,
      "detail": "n <= 12, every residue, k <= 6: 64 cases checked, 8 skipped by the guard of 100000 tuples"
    },
    {
      "suite": "rho",
      "check": "residue-count multiplicativity",
      "ok": true,
      "detail": "coprime pairs <= 12, every residue, k <= 5: 95 cases checked, 75 skipped by the guard of 100000 tuples"
    },
    {
      "suite": "rho",
      "check": "prime-power lifting steps",
      "ok": true,
      "detail": "p in (3, 5) s <= 3 and p = 2 s in (3, 4), k <= 3: 20 cases checked, 4 skipped by the guard of 100000 tuples"
    }
  ]
}
""",
    "phi --limit 30": (
        "suite  check                  ok    detail\n"
        "phi    three-route agreement  true  n <= 30, k <= 4: 120 cases checked, 0 skipped by the guard of 100000000 tuples\n"
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_OUTPUT))
def test_verify_output_bytes(command):
    result = CliRunner().invoke(main, ["verify", *command.split(), "--no-meta"])
    assert result.exit_code == 0
    assert result.output == PINNED_OUTPUT[command]
