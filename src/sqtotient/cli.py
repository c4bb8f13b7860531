"""Command-line surface: evaluate, verify, and generate reports.

Exit codes: 0 success / all checks pass, 1 verification failure (or I/O
failure while writing a report), 2 usage error (an option out of range or
any argument the library refuses), 3 the budget of predicted CPU time and
memory, or a guard on the size of one value, refused the computation.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from dataclasses import fields
from itertools import islice, repeat
from math import gcd

import click

from . import averaging, menon, verify
from .core_arith import BudgetExceededError, _check_budget, _mean_bits
from .phi import phi_k
from .reporting import FORMATS, _int_str, _write_cost, write_rows
from .rho import _check_output_bits, rho

INT64_MAX = 2**63 - 1

# The type of every integer option but -l, which starts at 0.
POSITIVE = click.IntRange(1, INT64_MAX)


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


@contextlib.contextmanager
def _output(out: str | None):
    """Stdout, or the ``--out`` file, opened only when the caller writes.

    Every guard runs before this, so a refusal leaves the file untouched.
    """
    if out is None:
        stream = click.get_text_stream("stdout")
        yield stream
        stream.flush()
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(1)


def _emit(rows, columns: list[str], fmt: str, meta: bool, out: str | None):
    with _output(out) as stream:
        write_rows(stream, rows, columns, fmt, meta)


def _fields(row_type) -> list[str]:
    return [field.name for field in fields(row_type)]


def _emit_dataclasses(rows, row_type, fmt: str, meta: bool, out: str | None):
    columns = _fields(row_type)
    _emit(([getattr(row, col) for col in columns] for row in rows), columns, fmt, meta, out)


@click.group()
@click.version_option(package_name="sqtotient")
def main():
    """Exact counts of tuples with invertible square sums modulo n."""


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
            with _output(out) as stream:
                stream.write(_int_str(value) + "\n")
        else:
            _emit([(k, n, value)], ["k", "n", "phi"], fmt, meta, out)
        return
    _check_output_bits(k, ((range_end, 1),), "phi_k_table")
    # the table and the writing of its rows, priced together before either
    table = averaging._table_cost(range_end, k, listed=True)
    cells = (k.bit_length(), range_end.bit_length(), _mean_bits(k, range_end))
    _check_budget(f"phi --range {range_end} at k = {k}", *_write_cost(range_end, cells, fmt, table))
    values = averaging.phi_k_table(k, range_end)
    rows = zip(repeat(k), range(1, range_end + 1), islice(values, 1, None))
    _emit(rows, ["k", "n", "phi"], fmt, meta, out)


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
        with _output(out) as stream:
            stream.write(f"{_int_str(value)} ({path})\n")
        return
    _emit([(k, lam, n, value, path)], ["k", "lambda", "n", "rho", "path"], fmt, not no_meta, out)


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(verify.SUITES)))
@click.option("--limit", type=POSITIVE, default=50, show_default=True, help="Range bound handed to the suite.")
@click.option("--max-enum", type=POSITIVE, default=verify.DEFAULT_GUARD, show_default=True, help="Largest n^k that verify compares against the census.")
@output_options
@guard_errors
def verify_command(suite, limit, max_enum, fmt, out, no_meta):
    """Run a property suite; exit 0 only if every check passes."""
    result = verify.run_suite(suite, limit, guard=max_enum)
    rows = [(result.suite, c.name, c.ok, c.detail) for c in result.checks]
    _emit(rows, ["suite", "check", "ok", "detail"], fmt, not no_meta, out)
    if not result.ok:
        sys.exit(1)


@main.command("report")
@click.argument(
    "kind", type=click.Choice(["average", "constants", "minimal-order", "menon"])
)
@click.option("-k", "--k", "k", type=POSITIVE, default=None, help="Tuple length (defaults per report kind).")
@click.option("--xs", default=None, help="Comma-separated ascending range ends, e.g. 1000,10000.")
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Certified error bound for constants.")
@click.option("--primes", "prime_count", type=POSITIVE, default=9, show_default=True, help="Primorial length for minimal-order.")
@click.option("--nmax", type=POSITIVE, default=40, show_default=True, help="Largest modulus for the menon table.")
@output_options
@guard_errors
def report_command(kind, k, xs, tol, prime_count, nmax, fmt, out, no_meta):
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
        _emit_dataclasses(rows, averaging.AveragingRow, fmt, meta, out)
        return

    if kind == "constants":
        k = k or 2
        forms = {"euler_product": averaging.euler_constant(k, tol)}
        if k in (2, 4):
            forms["corollary_product"] = averaging.corollary_constant(k, tol)
        columns = _fields(averaging.EulerConstant)
        records = [[form, *(getattr(c, col) for col in columns)] for form, c in forms.items()]
        _emit(records, ["form", *columns], fmt, meta, out)
        return

    if kind == "minimal-order":
        # the rows' primorials grow about linearly and their conversion as b^1.4
        # to b^2, so the mean row costs about as much as 0.55 times the last
        cells = (prime_count.bit_length(), 0.55 * averaging._primorial_bits(prime_count), 53)
        cost = _write_cost(prime_count - 2, cells, fmt, averaging._primorial_scan_cost(prime_count))
        _check_budget(f"report minimal-order of {prime_count} primes", *cost)
        rows = averaging.minimal_order_scan(k or 1, prime_count)
        records = [(i, n, ratio) for i, (n, ratio) in enumerate(rows, start=3)]
        _emit(records, ["primes", "primorial", "ratio"], fmt, meta, out)
        return

    k = k or 2
    bits = _mean_bits(k, nmax)
    cells = (k.bit_length(), nmax.bit_length(), bits, bits, menon._psi_bits(k, nmax), 1)
    cost = _write_cost(nmax, cells, fmt, menon._scan_cost(k, nmax))
    _check_budget(f"report menon at k = {k}, n <= {nmax}", *cost)
    rows = menon.psi_table(k, nmax)
    _emit_dataclasses(rows, menon.MenonRow, fmt, meta, out)


if __name__ == "__main__":
    main()
