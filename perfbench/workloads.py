"""The three workloads: seeded inputs, the operations of one pass, checks.

Each workload is a fixed list of operations (one pass) plus the CLI
commands run after every pass. Inputs come from ``random.Random(seed)``;
the seed changes the numbers but not the amount of work, so timings from
different seeds are comparable:

* tables: range ends are fixed sizes plus a seeded offset below 64.
* queries: every point query has a fixed slot (bit size, shape, k); the
  seed only picks the primes inside the slot (within 1.6% of its size)
  and the residues.
* certify: fixed limits and operation order; the seed moves the
  tolerance within 1%, which leaves the Euler products' prime bounds
  unchanged.

Library calls go through module objects looked up at call time, so a
tracer that rebinds module attributes sees them. ``sqtotient.rho`` is the
function rho, so every module is taken from ``sys.modules``.

Checks never compare against stored output of the program. They use
``reference`` (convolution censuses, the paper's formulas, enumeration),
``sympy`` factorisations, or properties the method must have. They run
after the timed rounds, on evidence the warm-up pass kept; every timed
pass must reproduce the warm-up's digest of each output.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

import sqtotient  # noqa: F401  (imports every layer module)

import reference as ref

PHI = sys.modules["sqtotient.phi"]
RHO = sys.modules["sqtotient.rho"]
AV = sys.modules["sqtotient.averaging"]
MENON = sys.modules["sqtotient.menon"]
VERIFY = sys.modules["sqtotient.verify"]

# The lru_cache object itself, kept before any tracer rebinds the name:
# every pass starts from an empty recurrence cache.
RECURRENCE = RHO.rho_base_vector


def _same(value):
    return value


def list_digest(values):
    return (len(values), hash(tuple(values)))


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # check(evidence, evidence_by_label) -> failure message or None
    check: Callable[[object, dict], str | None]
    kind: str = "bulk"  # "query": one single-modulus question
    evidence: Callable[[object], object] = _same
    digest: Callable[[object], object] = _same
    deep: bool = False  # deep-k rho: raises RecursionError until the recurrence is iterative
    args: tuple = ()  # the call's integer arguments, for CLI commands that repeat it


@dataclass
class CliCommand:
    label: str
    args: list[str]
    # check(returncode, stdout, evidence_by_label) -> failure message or None
    check: Callable[[int, str, dict], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cli: list[CliCommand]
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers


def _factorint(n):
    import sympy

    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_near(bits, rng):
    n = max(2, int(2.0**bits * (1 + rng.random() / 64)))
    while not _is_prime(n):
        n += 1
    return n


def _slot_modulus(i, bits, rng):
    """A modulus of about 2^bits whose factoring cost is fixed by the slot.

    Shapes cycle through a prime, 2^a times a prime and a small odd prime
    times a prime; trial division then runs to the square root of the
    large prime, whose size the slot fixes.
    """
    shape = i % 3
    if shape == 0:
        return _prime_near(bits, rng)
    if shape == 1:
        a = rng.randint(1, 3)
        return 2**a * _prime_near(max(bits - a, 1), rng)
    q = rng.choice((3, 5, 7, 11, 13))
    return q * _prime_near(max(bits - math.log2(q), 1), rng)


def _unit(n, rng):
    while True:
        lam = rng.randrange(1, n) if n > 1 else 0
        if gcd(lam, n) == 1:
            return lam


# ---------------------------------------------------------------------------
# tables


def _table_evidence(k, x, rng):
    small = list(range(1, min(x, 40) + 1))
    sample = set(small) | {rng.randint(41, x) for _ in range(200)} | {x}
    pairs = []
    while len(pairs) < 40:
        m = rng.randint(2, math.isqrt(x))
        n = rng.randint(2, x // m)
        if gcd(m, n) == 1:
            pairs.append((m, n))
            sample |= {m, n, m * n}
    sample = sorted(sample)

    def evidence(values):
        return {
            "digest": list_digest(values),
            "len": len(values),
            "sum": sum(values[1:]),
            "values": {n: values[n] for n in sample},
            "pairs": pairs,
        }

    def check(ev, _evs):
        if ev["len"] != x + 1:
            return f"length {ev['len']} != {x + 1}"
        values = ev["values"]
        for n, got in values.items():
            if k % 2:
                import sympy

                want = n ** (k - 1) * int(sympy.totient(n))
            else:
                want = ref.phi_k(k, _factorint(n))
            if got != want:
                return f"phi_{k}({n}) = {got}, expected {want}"
            if n**k <= 20000 and got != ref.phi_k_from_census(ref.enumerate_census(k, n), n):
                return f"phi_{k}({n}) = {got} disagrees with enumeration"
        for m, n in ev["pairs"]:
            if values[m * n] != values[m] * values[n]:
                return f"phi_{k} not multiplicative at ({m}, {n})"
        return None

    return evidence, check


def _table_op(k, x, rng):
    evidence, check = _table_evidence(k, x, rng)
    return Op(
        label=f"phi_k_table({k}, {x})",
        call=lambda: AV.phi_k_table(k, x),
        check=check,
        evidence=evidence,
        digest=list_digest,
    )


def _partial_sum_op(k, x):
    table = f"phi_k_table({k}, {x})"

    def check(value, evs):
        if value != evs[table]["sum"]:
            return f"partial_sum({k}, {x}) = {value} != table sum {evs[table]['sum']}"
        return None

    return Op(label=f"partial_sum({k}, {x})", call=lambda: AV.partial_sum(k, x), check=check)


def _g_table_op(k, limit, rng):
    sample = sorted(set(range(1, 41)) | {rng.randint(41, limit) for _ in range(120)})

    def evidence(result):
        keep = {d for n in sample for d in _divisors(n)}
        return {
            "k": result.k,
            "limit": result.limit,
            "len": len(result.values),
            "g": {d: result.values[d] for d in keep},
        }

    def check(ev, _evs):
        if (ev["k"], ev["limit"], ev["len"]) != (k, limit, limit + 1):
            return f"g_k_table header {ev['k'], ev['limit'], ev['len']}"
        g = ev["g"]
        if g[1] != 1:
            return "g_k(1) != 1"
        for n in sample:
            want = ref.phi_k(k, _factorint(n))
            if not ref.g_k_dirichlet_check(k, n, g, _divisors(n), want):
                return f"sum_(d|{n}) g_{k}(d) ({n}/d)^{k} != phi_{k}({n})"
        return None

    return Op(
        label=f"g_k_table({k}, {limit})",
        call=lambda: AV.g_k_table(k, limit),
        check=check,
        evidence=evidence,
        digest=lambda r: (r.k, r.limit, hash(r.values)),
    )


def _convolution_op(k, limit):
    def check(report, _evs):
        if (report.k, report.limit) != (k, limit) or not report.ok or report.first_mismatch:
            return f"convolution_check({k}, {limit}) failed: {report.first_mismatch}"
        return None

    return Op(
        label=f"convolution_check({k}, {limit})",
        call=lambda: AV.convolution_check(k, limit),
        check=check,
    )


def _report_op(k, xs):
    def check(rows, _evs):
        if [r.x for r in rows] != xs:
            return f"averaging_report rows {[r.x for r in rows]} != {xs}"
        sums = ref.odd_k_partial_sums(k, xs)
        for r, want in zip(rows, sums):
            if r.partial_sum != want:
                return f"S_{k}({r.x}) = {r.partial_sum}, expected {want}"
            main = 6 / math.pi**2 * r.x ** (k + 1) / (k + 1)
            if not math.isclose(r.main_term, main, rel_tol=1e-12):
                return f"main term at x={r.x}: {r.main_term} != {main}"
            if not math.isclose(r.rel_error, (want - main) / main, rel_tol=1e-6, abs_tol=1e-15):
                return f"rel_error at x={r.x}: {r.rel_error}"
        errors = [abs(r.rel_error) for r in rows]
        if any(b >= a for a, b in zip(errors, errors[1:])):
            return f"|rel_error| does not shrink with x: {errors}"
        return None

    return Op(
        label=f"averaging_report({k}, {xs})",
        call=lambda: AV.averaging_report(k, xs),
        check=check,
    )


def _csv_table_check(table_label, k, x):
    def check(code, out, evs):
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if lines[0] != "k,n,phi" or len(lines) != x + 1:
            return f"csv header {lines[0]!r} or {len(lines) - 1} rows"
        values = [0]
        for n, line in enumerate(lines[1:], start=1):
            kk, nn, value = line.split(",")
            if int(kk) != k or int(nn) != n:
                return f"csv row {n}: {line!r}"
            values.append(int(value))
        if list_digest(values) != evs[table_label]["digest"]:
            return "csv table differs from the library table"
        return None

    return check


def build_tables(seed):
    rng = random.Random(seed)

    def j():
        return rng.randrange(64)

    # range ends against the SPF table's 8 bytes per entry: 4096 entries is
    # 32 KiB (L1), 2^15..2^18 are 256 KiB..2 MiB (inside the 4 MiB L2),
    # 10^6 is 8 MB (past L2, inside L3)
    x1, x2, x3, x4 = 4096 + j(), 32768 + j(), 65536 + j(), 65536 + j()
    x5, x6, x7 = 262144 + j(), 10**6 - j(), 16384 + j()
    ops = [
        _table_op(1, x1, rng),
        _table_op(3, x2, rng),
        _table_op(5, x3, rng),
        _table_op(8, x4, rng),
        _table_op(4, x5, rng),
        _table_op(2, x6, rng),
        _table_op(6, x7, rng),
        _g_table_op(2, 131072 + j(), rng),
        _g_table_op(6, 16384 + j(), rng),
        _convolution_op(2, 10000 + j()),
        _convolution_op(4, 4000 + j()),
        _partial_sum_op(3, x2),
        _partial_sum_op(5, x3),
        # range ends 100x apart: the error term oscillates, and at this
        # spacing |rel_error| at the smaller end exceeds it at the larger
        # one for every offset below 64
        _report_op(1, [1000 + j(), 100000 + j()]),
        _report_op(3, [600 + j(), 60000 + j()]),
    ]
    cli = [
        CliCommand(
            label=f"phi -k 5 --range {x3} --format csv",
            args=["phi", "-k", "5", "--range", str(x3), "--format", "csv", "--no-meta"],
            check=_csv_table_check(f"phi_k_table(5, {x3})", 5, x3),
        )
    ]
    return Workload("tables", ops, cli, {"range_ends": [x1, x2, x3, x4, x5, x6, x7]})


# ---------------------------------------------------------------------------
# queries


def _phi_query(k, n):
    def check(value, _evs):
        want = ref.phi_k(k, _factorint(n))
        return None if value == want else f"phi_k({k}, {n}) = {value}, expected {want}"

    return Op(
        label=f"phi_k({k}, {n})", call=lambda: PHI.phi_k(k, n), check=check, kind="query", args=(k, n)
    )


def _rho_formula_query(k, lam, n):
    def check(value, _evs):
        want = ref.rho_unit(k, lam, _factorint(n))
        return None if value == want else f"rho({k}, {lam}, {n}) = {value}, expected {want}"

    return Op(label=f"rho({k}, {lam}, {n})", call=lambda: RHO.rho(k, lam, n), check=check, kind="query")


def _rho_oracle_query(k, lam, n):
    def check(value, _evs):
        want = ref.census(k, n)[lam]
        return None if value == want else f"rho({k}, {lam}, {n}) = {value}, census {want}"

    return Op(
        label=f"rho({k}, {lam}, {n})",
        call=lambda: RHO.rho(k, lam, n),
        check=check,
        kind="query",
        args=(k, lam, n),
    )


def _deep_rho(k, lam, n):
    def check(value, _evs):
        want = ref.rho_by_census(k, lam, _factorint(n))
        return None if value == want else f"deep rho({k}, {lam}, {n}) = {value}, census {want}"

    return Op(
        label=f"rho({k}, {lam}, {n}) [deep k]",
        call=lambda: RHO.rho(k, lam, n),
        check=check,
        deep=True,
    )


def _psi_table_op(k, n_max):
    def check(rows, _evs):
        if [r.n for r in rows] != list(range(1, n_max + 1)):
            return "psi_table rows out of order"
        for r in rows:
            lhs = ref.menon_lhs(k, r.n)
            phi = ref.phi_k(k, _factorint(r.n))
            psi = Fraction(lhs, phi)
            if (r.k, r.lhs, r.phi_k, r.psi, r.integral) != (k, lhs, phi, psi, psi.denominator == 1):
                return f"psi_table row n={r.n}: {r}"
        return None

    return Op(label=f"psi_table({k}, {n_max})", call=lambda: MENON.psi_table(k, n_max), check=check)


def _menon_scan(pairs):
    def check(values, _evs):
        for (k, n), value in zip(pairs, values):
            want = ref.menon_lhs(k, n)
            if value != want:
                return f"menon_lhs({k}, {n}) = {value}, census {want}"
        return None

    return Op(
        label=f"menon_lhs scan over {len(pairs)} moduli",
        call=lambda: [MENON.menon_lhs(k, n) for k, n in pairs],
        check=check,
    )


def _value_check(op_label, parse):
    def check(code, out, evs):
        if code != 0:
            return f"exit code {code}"
        got = parse(out)
        want = evs[op_label]
        return None if got == want else f"CLI printed {got}, library gives {want}"

    return check


def build_queries(seed):
    rng = random.Random(seed)
    points = []
    # phi_k: 64 slots, log-uniform in n up to about 2^62; the last slot is
    # the one input that reaches Brent's rho, a semiprime whose smaller
    # factor is just past the 10^6 trial-division bound, so splitting it
    # costs little beside the trial division every large n pays
    for i in range(63):
        bits = 1 + 61 * (i + 0.5) / 64
        points.append(_phi_query(rng.randint(1, 8), _slot_modulus(i, bits, rng)))
    semiprime = _prime_near(20.5, rng) * _prime_near(40, rng)
    points.append(_phi_query(rng.randint(1, 8), semiprime))
    # rho at unit residues: 96 slots up to 2^36, k fixed per slot
    for i in range(96):
        n = _slot_modulus(i, 1 + 35 * (i + 0.5) / 96, rng)
        points.append(_rho_formula_query(1 + i % 6, _unit(n, rng), n))
    # rho at non-unit residues of small n: every (k, n) with n^k <= 50000
    for k in (2, 3, 4):
        for n in range(2, 37):
            if n**k <= 50000:
                lam = rng.choice([x for x in range(n) if gcd(x, n) > 1])
                points.append(_rho_oracle_query(k, lam, n))
    cli_phi = points[30]  # a ~30-bit slot: factoring takes ~1 ms beside start-up
    cli_rho = points[-30]  # an enumeration-route query
    rng.shuffle(points)
    deep_k = rng.randint(2000, 4000)
    deep = [_deep_rho(deep_k, _unit(n, rng), n) for n in (8, 24, 40)]
    scan = [(2 + i % 3, 25 * i + rng.randint(2, 26)) for i in range(16)]
    ops = points + deep + [_psi_table_op(2, 200), _menon_scan(scan)]

    pk, pn = map(str, cli_phi.args)
    rk, rl, rn = map(str, cli_rho.args)
    cli = [
        CliCommand(
            label=f"phi -k {pk} -n {pn}",
            args=["phi", "-k", pk, "-n", pn],
            check=_value_check(cli_phi.label, lambda out: int(out.strip())),
        ),
        CliCommand(
            label=f"rho -k {rk} -l {rl} -n {rn}",
            args=["rho", "-k", rk, "-l", rl, "-n", rn],
            check=_value_check(cli_rho.label, lambda out: int(out.split()[0])),
        ),
    ]
    return Workload("queries", ops, cli, {"deep_k": deep_k, "menon_scan": scan})


# ---------------------------------------------------------------------------
# certify

# the k = 2 product takes about a second at this tolerance
CERTIFY_TOL = 3e-10
CLI_TOL = 1e-9
SUITE_LIMITS = {"rho": 20, "phi": 30, "identities": 200, "convolution": 500, "menon-classic": 2000}


def _suite_op(suite, limit):
    def check(result, _evs):
        if result.suite != suite or result.limit != limit or not result.checks:
            return f"suite header {result.suite} {result.limit}"
        if not result.ok or not all(c.ok for c in result.checks):
            bad = [c.name for c in result.checks if not c.ok]
            return f"verify {suite} failed: {bad}"
        return None

    return Op(label=f"verify {suite} {limit}", call=lambda: VERIFY.run_suite(suite, limit), check=check)


def _plain_product_primes():
    import sympy

    return list(sympy.primerange(3, 100_000))


def _euler_op(k, tol):
    def check(c, _evs):
        if c.k != k or not c.tail_bound <= tol or not c.prime_bound > 0:
            return f"euler_constant({k}): tail {c.tail_bound} prime bound {c.prime_bound}"
        plain = ref.plain_euler_product(k, _plain_product_primes())
        # the plain product's omitted factors change it by at most ~1/P
        if abs(float(c.value) / plain - 1) > 3e-5:
            return f"euler_constant({k}) = {c.value} far from plain product {plain}"
        return None

    return Op(label=f"euler_constant({k}, {tol})", call=lambda: AV.euler_constant(k, tol), check=check)


def _corollary_op(k, tol):
    euler = f"euler_constant({k}, {tol})"

    def check(c, evs):
        e = evs[euler]
        if c.k != k or not c.tail_bound <= tol:
            return f"corollary_constant({k}): tail {c.tail_bound}"
        gap = abs(e.value / (k + 1) - c.value)
        if gap > e.tail_bound / (k + 1) + c.tail_bound:
            return f"C_{k}/(k+1) and the corollary form differ by {gap}"
        return None

    return Op(label=f"corollary_constant({k}, {tol})", call=lambda: AV.corollary_constant(k, tol), check=check)


def _verify_cli_check(code, out, _evs):
    import json

    if code != 0:
        return f"exit code {code}"
    rows = json.loads(out)["rows"]
    if not rows or any(r["suite"] != "rho" or r["ok"] is not True for r in rows):
        return "verify rho reported a failing check"
    return None


def _constants_cli_check(k, tol):
    """The CLI's constants (at CLI_TOL) against the library's (at ``tol``)."""

    def check(code, out, evs):
        import json

        if code != 0:
            return f"exit code {code}"
        rows = {r["form"]: r for r in json.loads(out)["rows"]}
        euler, corollary = rows["euler_product"], rows["corollary_product"]
        lib_euler = evs[f"euler_constant({k}, {tol})"]
        lib_corollary = evs[f"corollary_constant({k}, {tol})"]
        if abs(euler["value"] - float(lib_euler.value)) > euler["tail_bound"] + float(lib_euler.tail_bound):
            return "CLI euler_product is outside the tail bounds of the library value"
        if abs(corollary["value"] - float(lib_corollary.value)) > corollary["tail_bound"] + float(
            lib_corollary.tail_bound
        ):
            return "CLI corollary_product is outside the tail bounds of the library value"
        if abs(euler["value"] / (k + 1) - corollary["value"]) > (
            euler["tail_bound"] / (k + 1) + corollary["tail_bound"]
        ):
            return "CLI product forms disagree beyond their tail bounds"
        return None

    return check


def build_certify(seed):
    rng = random.Random(seed)
    tol = float(f"{CERTIFY_TOL * (1 + rng.random() / 100):.4g}")
    ops = [_suite_op(s, limit) for s, limit in SUITE_LIMITS.items()]
    ops += [_euler_op(k, tol) for k in (2, 4, 6)]
    # the corollary form exists for k = 2 and 4 only
    ops += [_corollary_op(k, tol) for k in (2, 4)]
    # a 10^5 guard keeps the CLI's census arrays small: at 10^6 its run
    # time jumps between two levels from one invocation to the next
    cli = [
        CliCommand(
            label="verify rho --limit 12 --max-enum 100000",
            args=["verify", "rho", "--limit", "12", "--max-enum", "100000", "--format", "json", "--no-meta"],
            check=_verify_cli_check,
        ),
        CliCommand(
            label=f"report constants -k 4 --tol {CLI_TOL}",
            args=["report", "constants", "-k", "4", "--tol", str(CLI_TOL), "--format", "json", "--no-meta"],
            check=_constants_cli_check(4, tol),
        ),
    ]
    return Workload("certify", ops, cli, {"tol": tol, "limits": SUITE_LIMITS})


BUILDERS = {"tables": build_tables, "queries": build_queries, "certify": build_certify}
