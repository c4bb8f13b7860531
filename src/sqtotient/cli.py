"""Command-line surface: evaluate, verify, and generate reports.

Exit codes: 0 success / all checks pass, 1 verification failure (or I/O
failure while writing a report), 2 usage error (an option out of range or
any argument the library refuses), 3 a resource guard refused the
computation.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import fields
from math import gcd

import click

from . import averaging, menon, verify
from .core_arith import BudgetExceededError, _check_sieve_limit
from .phi import phi_k
from .reporting import FORMATS, render
from .rho import MAX_OUTPUT_BITS, _check_output_bits, rho

INT64_MAX = 2**63 - 1

# The type of every integer option but -l, which starts at 0.
POSITIVE = click.IntRange(1, INT64_MAX)

# Largest x (k log2 x + 1024) that `phi --range x` renders. Building and
# rendering the rows took at most about 1.3 bytes per unit of it over a
# 30 MB base in every format: about 1.4 KB per row at small k, plus about
# one byte per bit of phi_k. At the largest x admitted, the peak RSS
# measured 719 MB at k = 8 (x = 456,522, JSON; CSV 206 MB), 748 MB at
# k = 1 (x = 514,737, JSON) and 619 MB at k = 1000 (x = 32,767, plain).
MAX_RANGE_OUTPUT = 1 << 29


def _check_range_output(k: int, x: int) -> None:
    """Refuse to render a table of phi_k(n), n <= x, past MAX_RANGE_OUTPUT."""
    work = x * (k * x.bit_length() + 1024)
    if work > MAX_RANGE_OUTPUT:
        raise BudgetExceededError(work, MAX_RANGE_OUTPUT, "phi --range output (x (k log2 x + 1024))")


def output_options(command):
    for option in (
        click.option(
            "--format",
            "fmt",
            type=click.Choice(FORMATS),
            default="plain",
            show_default=True,
            help="Output rendering.",
        ),
        click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output to a file instead of stdout."),
        click.option("--no-meta", is_flag=True, help="Omit the generation-time header so output is byte-reproducible."),
    ):
        command = option(command)
    return command


def guard_errors(command):
    # resource guards map to exit code 3, arguments the library refuses to
    # exit code 2; everything else propagates
    @functools.wraps(command)
    def wrapped(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except BudgetExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None

    return wrapped


def _emit(text: str, out: str | None):
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(1)


def _fields(row_type) -> list[str]:
    return [field.name for field in fields(row_type)]


@click.group()
@click.version_option(package_name="sqtotient")
def main():
    """Exact counts of tuples with invertible square sums modulo n."""
    # Python refuses to print an int of more than 4300 digits by default
    # (since 3.10.7); every count the output-size guard lets through must
    # still print
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(MAX_OUTPUT_BITS // 3 + 2)


@main.command("phi")
@click.option("-k", "--k", "k", type=POSITIVE, required=True, help="Tuple length.")
@click.option("-n", "--n", "n", type=POSITIVE, default=None, help="Single modulus to evaluate.")
@click.option("--range", "range_end", type=POSITIVE, default=None, help="Evaluate every modulus 1..X via the sieve table.")
@output_options
@guard_errors
def phi_command(k, n, range_end, fmt, out, no_meta):
    """Evaluate the square-sum totient at one modulus or over a range."""
    if (n is None) == (range_end is None):
        raise click.UsageError("provide exactly one of -n or --range")
    meta = not no_meta
    if n is not None:
        value = phi_k(k, n)
        if fmt == "plain":
            # scalar answers stay bare so they can be piped directly
            _emit(f"{value}\n", out)
        else:
            _emit(render([{"k": k, "n": n, "phi": value}], ["k", "n", "phi"], fmt, meta), out)
        return
    # the table's own refusals keep their precedence over the output budget
    _check_output_bits(k, ((range_end, 1),), "phi_k_table")
    _check_sieve_limit(range_end, "multiplicative table")
    _check_range_output(k, range_end)
    values = averaging.phi_k_table(k, range_end)
    rows = [{"k": k, "n": n_, "phi": values[n_]} for n_ in range(1, range_end + 1)]
    _emit(render(rows, ["k", "n", "phi"], fmt, meta), out)


@main.command("rho")
@click.option("-k", "--k", "k", type=POSITIVE, required=True, help="Tuple length.")
@click.option("-l", "--lam", "lam", type=click.IntRange(0, INT64_MAX), required=True, help="Target residue class.")
@click.option("-n", "--n", "n", type=POSITIVE, required=True, help="Modulus.")
@output_options
@guard_errors
def rho_command(k, lam, n, fmt, out, no_meta):
    """Count tuples whose square sum hits one residue class."""
    path = "formula" if gcd(lam, n) == 1 else "descent"
    value = rho(k, lam, n)
    if fmt == "plain":
        _emit(f"{value} ({path})\n", out)
        return
    rows = [{"k": k, "lambda": lam, "n": n, "rho": value, "path": path}]
    _emit(render(rows, ["k", "lambda", "n", "rho", "path"], fmt, not no_meta), out)


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(verify.SUITES)))
@click.option("--limit", type=POSITIVE, default=50, show_default=True, help="Range bound handed to the suite.")
@click.option("--max-enum", type=POSITIVE, default=verify.DEFAULT_GUARD, show_default=True, help="Largest n^k that verify compares against the census.")
@output_options
@guard_errors
def verify_command(suite, limit, max_enum, fmt, out, no_meta):
    """Run a property suite; exit 0 only if every check passes."""
    result = verify.run_suite(suite, limit, guard=max_enum)
    rows = [
        {"suite": result.suite, "check": c.name, "ok": c.ok, "detail": c.detail}
        for c in result.checks
    ]
    _emit(render(rows, ["suite", "check", "ok", "detail"], fmt, not no_meta), out)
    if not result.ok:
        sys.exit(1)


@main.command("report")
@click.argument(
    "kind", type=click.Choice(["average", "constants", "minimal-order", "menon", "menon-mult"])
)
@click.option("-k", "--k", "k", type=POSITIVE, default=None, help="Tuple length (defaults per report kind).")
@click.option("--xs", default=None, help="Comma-separated ascending range ends, e.g. 1000,10000.")
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Certified error bound for constants.")
@click.option("--primes", "prime_count", type=POSITIVE, default=9, show_default=True, help="Primorial length for minimal-order.")
@click.option("--experimental", is_flag=True, help="Allow even k in the minimal-order scan (data only).")
@click.option("--nmax", type=POSITIVE, default=40, show_default=True, help="Largest modulus for the menon table.")
@click.option("--bound", type=POSITIVE, default=60, show_default=True, help="Product bound for the multiplicativity scan.")
@output_options
@guard_errors
def report_command(kind, k, xs, tol, prime_count, experimental, nmax, bound, fmt, out, no_meta):
    """Generate a machine-readable report (deterministic with --no-meta)."""
    meta = not no_meta
    if kind == "average":
        if not xs:
            raise click.UsageError("report average needs --xs")
        try:
            ends = [int(part) for part in xs.split(",") if part.strip()]
        except ValueError as exc:
            raise click.UsageError(f"--xs must be comma-separated integers: {exc}")
        rows = averaging.averaging_report(k or 1, ends, tol=tol)
        _emit(render([vars(r) for r in rows], _fields(averaging.AveragingRow), fmt, meta), out)
        return

    if kind == "constants":
        k = k or 2
        forms = {"euler_product": averaging.euler_constant(k, tol)}
        if k in (2, 4):
            forms["corollary_product"] = averaging.corollary_constant(k, tol)
        records = [{"form": form, **vars(c)} for form, c in forms.items()]
        _emit(render(records, ["form", *_fields(averaging.EulerConstant)], fmt, meta), out)
        return

    if kind == "minimal-order":
        rows = averaging.minimal_order_scan(k or 1, prime_count, experimental=experimental)
        records = [
            {"primes": i, "primorial": n, "ratio": ratio}
            for i, (n, ratio) in enumerate(rows, start=3)
        ]
        _emit(render(records, ["primes", "primorial", "ratio"], fmt, meta), out)
        return

    if kind == "menon":
        rows = menon.psi_table(k or 2, nmax)
        _emit(render([vars(r) for r in rows], _fields(menon.MenonRow), fmt, meta), out)
        return

    rows = menon.psi_multiplicativity_scan(k or 2, bound)
    records = [
        {"m": r.m, "n": r.n, "psi_m_psi_n": r.separate, "psi_mn": r.combined, "equal": r.equal}
        for r in rows
    ]
    _emit(render(records, ["m", "n", "psi_m_psi_n", "psi_mn", "equal"], fmt, meta), out)


if __name__ == "__main__":
    main()
