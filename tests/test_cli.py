"""Command-line contract: values, formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import sqtotient
import sqtotient.averaging as averaging
import sqtotient.cli as cli
from sqtotient.cli import INT64_MAX, main
from sqtotient.phi import phi_k
from sqtotient.rho import trig_closed_form_rho8
from test_reporting import reference_render


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestPhiCommand:
    def test_single_value_plain(self, runner):
        result = run(runner, "phi", "-k", "1", "-n", "10")
        assert result.exit_code == 0
        assert result.output.strip() == "4"

    def test_single_value_known(self, runner):
        result = run(runner, "phi", "-k", "2", "-n", "15")
        assert result.output.strip() == "128"

    def test_range_csv(self, runner):
        result = run(runner, "phi", "-k", "3", "--range", "5", "--format", "csv", "--no-meta")
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["k", "n", "phi"]
        assert len(rows) == 6
        # odd k: n^2 phi(n)
        assert [int(r[2]) for r in rows[1:]] == [1, 4, 18, 32, 100]

    def test_range_equals_the_reference_renderers(self, runner):
        # a CSV batch of ints is joined without csv.writer; its bytes are csv.writer's
        values = averaging.phi_k_table(5, 3000)
        records = [{"k": 5, "n": n, "phi": values[n]} for n in range(1, 3001)]
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([["k", "n", "phi"]] + [list(r.values()) for r in records])
        result = run(runner, "phi", "-k", "5", "--range", "3000", "--format", "csv", "--no-meta")
        assert result.output == buffer.getvalue()
        result = run(runner, "phi", "-k", "5", "--range", "3000", "--no-meta")
        assert result.output == reference_render(records, ["k", "n", "phi"], "plain", meta=False)

    def test_requires_exactly_one_target(self, runner):
        assert run(runner, "phi", "-k", "2").exit_code == 2
        assert run(runner, "phi", "-k", "2", "-n", "3", "--range", "5").exit_code == 2

    def test_output_size_guard(self, runner):
        huge = str(2**63 - 1)
        for args in (("-n", "3"), ("--range", "3")):
            result = run(runner, "phi", "-k", huge, *args)
            assert result.exit_code == 3
            assert "output bit length" in result.output
        assert run(runner, "rho", "-k", huge, "-l", "1", "-n", "3").exit_code == 3
        assert run(runner, "report", "menon", "-k", huge, "--nmax", "3").exit_code == 3

    def test_prints_counts_past_the_default_digit_limit(self, runner):
        result = run(runner, "phi", "-k", "1000", "-n", str(10**9 + 7))
        assert result.exit_code == 0
        assert len(result.output.strip()) > 4300

    def test_rejects_out_of_range_inputs(self, runner):
        assert run(runner, "phi", "-k", "0", "-n", "5").exit_code == 2
        assert run(runner, "phi", "-k", "1", "-n", str(2**63)).exit_code == 2

    def test_range_output_budget(self, runner, admitted):
        # the table and the writing of its rows, priced together: in JSON the
        # CPU limit binds at 717,432 rows at k = 8 and 12,226 at k = 1000
        for k, x in ((8, 717_432), (1000, 12_226)):
            args = ["phi", "-k", str(k), "--format", "json", "--range"]
            assert admitted(cli, lambda: main([*args, str(x)], standalone_mode=False))
            assert not admitted(cli, lambda: main([*args, str(x + 1)], standalone_mode=False))
        tracemalloc.start()
        try:
            result = run(runner, "phi", "-k", "8", "--range", "717433", "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 3
        assert "CPU milliseconds of phi --range 717433 at k = 8 (predicted 4 s of CPU and 49.9 MB)" in result.output
        assert "over the limit of 4000" in result.output
        assert "Traceback" not in result.output
        assert peak < 10**7

    def test_sieve_size_guard(self, runner, admitted):
        # an int64 table takes 16 bytes an entry with its sieve, and 48 as a
        # list: at 3 * 10^8 entries that is 4.8 and 14.4 GB
        average = ["report", "average", "-k", "1", "--xs"]
        assert admitted(averaging, lambda: main([*average, "31250000"], standalone_mode=False))
        assert not admitted(averaging, lambda: main([*average, "31250001"], standalone_mode=False))
        for args, what in (
            (("phi", "-k", "2", "--range", "300000000"), "phi --range 300000000 at k = 2"),
            ((*average, "3,300000000"), "a table of 300000000 values at k = 1"),
        ):
            tracemalloc.start()
            try:
                result = run(runner, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 3
            assert f"of {what} (predicted" in result.output
            assert peak < 10**7

    def test_average_table_refused_before_allocating(self, runner):
        # k = 8 to 2^24 is a table of 16.8 million Python ints, about 1.2 GB
        import mpmath  # noqa: F401  (loaded before tracing starts)
        import numpy  # noqa: F401

        tracemalloc.start()
        try:
            result = run(runner, "report", "average", "-k", "8", "--xs", "16777216")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 3
        assert "megabytes of a table of 16777216 values at k = 8 (predicted" in result.output
        assert "Traceback" not in result.output
        assert peak < 50 * 10**6

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_average_at_large_k(self, runner, fmt):
        # x^(k+1) / (k+1) must stay below 2^1024 for the float main term;
        # every value printed is finite
        result = run(runner, "report", "average", "-k", "60", "--xs", "1000,120954", "--format", fmt, "--no-meta")
        assert result.exit_code == 0
        for word in ("inf", "Infinity", "nan", "NaN"):
            assert word not in result.output
        if fmt == "json":
            rows = json.loads(result.output)["rows"]
            assert [row["x"] for row in rows] == ["1000", "120954"]
            assert all(abs(row[col]) < float("inf") for row in rows for col in ("main_term", "rel_error", "error_ratio"))
        for k, xs in (("60", "1000,120955"), ("400", "10"), ("62", "100000")):
            refused = run(runner, "report", "average", "-k", k, "--xs", xs, "--format", fmt)
            assert refused.exit_code == 2
            assert "past the float range: x^(k+1) / (k+1) >= 2^1024" in refused.output
            assert "Traceback" not in refused.output


class TestRhoCommand:
    def test_formula_path(self, runner):
        result = run(runner, "rho", "-k", "2", "-l", "1", "-n", "4")
        assert result.exit_code == 0
        assert result.output.strip() == "8 (formula)"

    def test_descent_path(self, runner):
        assert run(runner, "rho", "-k", "2", "-l", "0", "-n", "5").output.strip() == "9 (descent)"
        result = run(runner, "rho", "-k", "4", "-l", "0", "-n", "120")
        assert result.exit_code == 0
        assert result.output.strip() == "612480 (descent)"
        started = time.process_time()
        result = run(runner, "rho", "-k", "2", "-l", "0", "-n", "1000003")
        assert result.exit_code == 0
        assert result.output.strip() == "1 (descent)"
        assert time.process_time() - started < 1

    def test_budget_exit_code_at_huge_k(self, runner):
        # the refusal names the count's bit length without building it
        for k in ("1000000", str(2**63 - 1)):
            result = run(runner, "rho", "-k", k, "-l", "0", "-n", "3")
            assert result.exit_code == 3
            assert f"output bit length of rho at k = {k}" in result.output
            assert "Traceback" not in result.output

    def test_deep_k_at_modulus_8(self, runner):
        result = run(runner, "rho", "-k", "3000", "-l", "1", "-n", "8")
        assert result.exit_code == 0
        assert result.output.strip() == f"{trig_closed_form_rho8(3000, 1)} (formula)"

    def test_descent_past_the_census_cap(self, runner):
        # 10^8 is over the census modulus cap; the descent builds no census
        tracemalloc.start()
        try:
            result = run(runner, "rho", "-k", "1", "-l", "0", "-n", str(10**8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert result.output.strip() == "10000 (descent)"
        assert peak < 10**7

    def test_max_enum_must_be_positive(self, runner):
        for budget in ("0", "-1"):
            assert run(runner, "verify", "rho", "--limit", "1", "--max-enum", budget).exit_code == 2
        # rho enumerates nothing, so it takes no tuple budget
        assert run(runner, "rho", "-k", "2", "-l", "0", "-n", "5", "--max-enum", "1000").exit_code == 2

    def test_json_fields(self, runner):
        result = run(runner, "rho", "-k", "1", "-l", "1", "-n", "8", "--format", "json", "--no-meta")
        document = json.loads(result.output)
        assert document["rows"] == [
            {"k": "1", "lambda": "1", "n": "8", "rho": "4", "path": "formula"}
        ]


class TestVerifyCommand:
    def test_small_pass(self, runner):
        result = run(runner, "verify", "rho", "--limit", "1", "--no-meta")
        assert result.exit_code == 0

    def test_menon_classic(self, runner):
        result = run(runner, "verify", "menon-classic", "--limit", "300", "--no-meta")
        assert result.exit_code == 0
        assert "true" in result.output

    def test_detail_counts_guard_skips(self, runner):
        result = run(
            runner, "verify", "rho", "--limit", "10", "--max-enum", "1000", "--format", "json", "--no-meta"
        )
        assert result.exit_code == 0
        details = {row["check"]: row["detail"] for row in json.loads(result.output)["rows"]}
        detail = details["prime-power formula vs enumeration"]
        # moduli 2, 3, 4, 5, 7, 8, 9 at k <= 6; 4^5, 5^5, 7^4, 8^4, 9^4 and
        # every higher power pass the 1000-tuple guard
        assert detail.endswith("29 cases checked, 13 skipped by the guard of 1000 tuples")

    def test_detail_names_the_guard_applied(self, runner):
        # the checks over general moduli cap the guard at 10^6 tuples
        result = run(
            runner, "verify", "rho", "--limit", "50", "--max-enum", str(INT64_MAX), "--format", "json", "--no-meta"
        )
        assert result.exit_code == 0
        details = {row["check"]: row["detail"] for row in json.loads(result.output)["rows"]}
        assert details["general-modulus formula vs enumeration"].endswith(
            "206 cases checked, 94 skipped by the guard of 1000000 tuples"
        )
        assert details["residue-count multiplicativity"].endswith("skipped by the guard of 1000000 tuples")
        assert details["prime-power formula vs enumeration"].endswith(f"0 skipped by the guard of {INT64_MAX} tuples")

    @pytest.mark.parametrize("suite, cap", [("phi", 2**10), ("menon-classic", 2**14), ("convolution", 2**20)])
    def test_limit_cap_exit_code(self, runner, suite, cap):
        result = run(runner, "verify", suite, "--limit", str(cap + 1))
        assert result.exit_code == 3
        assert f"over the limit of {cap}" in result.output
        assert "Traceback" not in result.output

    def test_unknown_suite_is_usage_error(self, runner):
        assert run(runner, "verify", "nonsense").exit_code == 2

    def test_failing_suite_exits_one(self, runner, monkeypatch):
        from sqtotient.verify import Check, SuiteResult

        def always_failing(suite, limit, guard=0):
            failing = Check(name="stub", ok=False, detail="first counterexample: n=7")
            return SuiteResult(suite=suite, limit=limit, checks=[failing])

        monkeypatch.setattr("sqtotient.verify.run_suite", always_failing)
        result = runner.invoke(main, ["verify", "phi", "--limit", "5", "--no-meta"])
        assert result.exit_code == 1
        assert "n=7" in result.output


class TestReportCommand:
    def test_average_csv_header(self, runner):
        result = run(
            runner, "report", "average", "-k", "1", "--xs", "100,1000",
            "--format", "csv", "--no-meta",
        )
        lines = result.output.splitlines()
        assert lines[0] == "x,partial_sum,main_term,rel_error,error_ratio"
        assert lines[1].split(",")[1] == "3044"

    def test_average_needs_xs(self, runner):
        assert run(runner, "report", "average", "-k", "1").exit_code == 2

    def test_constants(self, runner):
        result = run(runner, "report", "constants", "-k", "2", "--tol", "1e-9", "--no-meta")
        assert result.exit_code == 0
        assert "euler_product" in result.output
        assert "corollary_product" in result.output
        assert "0.64980275" in result.output

    def test_constants_working_precision_guard(self, runner):
        result = run(runner, "report", "constants", "-k", "2", "--tol", "1e-200")
        assert result.exit_code == 3
        assert "working precision" in result.output
        assert run(runner, "report", "constants", "-k", "2", "--tol", "nan").exit_code == 2

    def test_constants_tight_tolerance(self, runner):
        def rows(tol):
            result = run(runner, "report", "constants", "-k", "2", "--tol", tol, "--format", "json", "--no-meta")
            assert result.exit_code == 0
            return {r["form"]: r for r in json.loads(result.output)["rows"]}

        coarse = rows("1e-9")
        for tol in ("1e-15", "1e-18"):
            for form, row in rows(tol).items():
                assert row["tail_bound"] <= float(tol)
                assert abs(row["value"] - coarse[form]["value"]) <= coarse[form]["tail_bound"]

    def test_minimal_order_even_k_answers(self, runner):
        result = run(runner, "report", "minimal-order", "-k", "2", "--format", "csv", "--no-meta")
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["primes", "primorial", "ratio"]
        assert [row[1] for row in rows[1:]] == [str(n) for n, _ in averaging.minimal_order_scan(2, 9)]

    def test_minimal_order_output_size_guard(self, runner):
        huge = str(2**63 - 1)
        result = run(runner, "report", "minimal-order", "-k", huge, "--primes", "3")
        assert result.exit_code == 3
        assert "output bit length" in result.output
        even = run(runner, "report", "minimal-order", "-k", str(2**63 - 2), "--primes", "3")
        assert even.exit_code == 3

    def test_menon_table(self, runner):
        result = run(runner, "report", "menon", "-k", "2", "--nmax", "6", "--format", "csv", "--no-meta")
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["k", "n", "lhs", "phi_k", "psi", "integral"]
        assert rows[3] == ["2", "3", "16", "8", "2", "true"]

    @pytest.mark.parametrize(
        "kind, option, largest",
        [("menon", "--nmax", 198_508)],
        ids=["menon---nmax"],
    )
    def test_menon_bound_cap_exit_code(self, runner, admitted, kind, option, largest):
        # plain text at k = 2: the table and the writing of its rows priced together
        args = ["report", kind, "-k", "2", option]
        assert admitted(cli, lambda: main([*args, str(largest)], standalone_mode=False))
        assert not admitted(cli, lambda: main([*args, str(largest + 1)], standalone_mode=False))
        for value in (largest + 1, 2**63 - 1):
            result = run(runner, *args, str(value))
            assert result.exit_code == 3
            assert f"report {kind} at k = 2" in result.output
            assert "(predicted" in result.output and "over the limit of 4000" in result.output
            assert "Traceback" not in result.output

    def test_menon_cap_bounds_k(self, runner, admitted):
        # a modulus costs more at larger k: k = 1000 stops at 5,937 moduli,
        # k = 65536 at 58
        for k, largest in ((1000, 5937), (65536, 58)):
            args = ["report", "menon", "-k", str(k), "--nmax"]
            assert admitted(cli, lambda: main([*args, str(largest)], standalone_mode=False))
            assert not admitted(cli, lambda: main([*args, str(largest + 1)], standalone_mode=False))
        result = run(runner, "report", "menon", "-k", "1000", "--nmax", "5938")
        assert result.exit_code == 3
        assert "CPU milliseconds of report menon at k = 1000, n <= 5938 (predicted 4 s of CPU" in result.output


# Every integer option of every subcommand, with arguments that are valid
# without it; the option is appended, so its value overrides any default.
BASE_ARGS = {
    "phi": ["phi", "-k", "2", "-n", "5"],
    "rho": ["rho", "-k", "2", "-l", "1", "-n", "5"],
    "verify": ["verify", "rho", "--limit", "1"],
    "report": ["report", "menon", "--nmax", "3"],
}
INT_OPTIONS = [
    (name, param)
    for name, command in sorted(main.commands.items())
    for param in command.params
    if isinstance(param.type, click.types.IntParamType)
]


class TestIntegerContract:
    def test_every_subcommand_is_covered(self):
        assert set(BASE_ARGS) == set(main.commands)
        assert len(INT_OPTIONS) == 11

    @pytest.mark.parametrize(
        "name, param", INT_OPTIONS, ids=[f"{name} {param.opts[0]}" for name, param in INT_OPTIONS]
    )
    def test_out_of_range_is_usage_error(self, runner, name, param):
        assert isinstance(param.type, click.IntRange)
        assert param.type.max == INT64_MAX
        assert run(runner, *BASE_ARGS[name]).exit_code == 0
        for value in (param.type.min - 1, 2**63):
            result = run(runner, *BASE_ARGS[name], param.opts[0], str(value))
            assert result.exit_code == 2
            assert f"Invalid value for '{param.opts[0]}'" in result.output
            assert "Traceback" not in result.output

    def test_library_argument_errors_are_usage_errors(self, runner):
        for args in (
            ("report", "minimal-order", "-k", "1", "--primes", "2"),
            ("report", "constants", "--tol", "0"),
            ("report", "average", "--xs", "2,10"),
            ("report", "average", "--xs", "100", "--tol", "nan"),
        ):
            result = run(runner, *args)
            assert result.exit_code == 2
            assert "Traceback" not in result.output

    def test_primorial_scan_length_is_a_budget(self, runner, admitted):
        # writing the primorials in full takes most of the time: 3,800 of
        # them in plain text
        args = ["report", "minimal-order", "-k", "1", "--primes"]
        assert admitted(cli, lambda: main([*args, "3800"], standalone_mode=False))
        assert not admitted(cli, lambda: main([*args, "3801"], standalone_mode=False))
        result = run(runner, *args, "10001")
        assert result.exit_code == 3
        assert "CPU milliseconds of report minimal-order of 10001 primes (predicted" in result.output
        assert "Traceback" not in result.output


class TestOutputContract:
    def test_csv_json_round_trip(self, runner):
        shared = ["report", "menon", "-k", "2", "--nmax", "8", "--no-meta"]
        as_csv = run(runner, *shared, "--format", "csv").output
        as_json = run(runner, *shared, "--format", "json").output
        csv_rows = list(csv.reader(io.StringIO(as_csv)))
        header, csv_rows = csv_rows[0], csv_rows[1:]
        json_rows = json.loads(as_json)["rows"]
        assert len(csv_rows) == len(json_rows)
        for line, record in zip(csv_rows, json_rows):
            for column, cell in zip(header, line):
                value = record[column]
                if isinstance(value, bool):
                    value = "true" if value else "false"
                assert str(value) == cell

    def test_no_meta_is_byte_deterministic(self, runner):
        args = ["report", "average", "-k", "2", "--xs", "50,500", "--format", "json", "--no-meta"]
        first = run(runner, *args).output
        second = run(runner, *args).output
        assert first == second

    def test_meta_header_present_by_default(self, runner):
        output = run(runner, "report", "constants", "-k", "1").output
        assert output.startswith("# generated: ")

    def test_out_writes_file(self, runner, tmp_path):
        target = tmp_path / "report.csv"
        result = run(
            runner, "report", "constants", "-k", "1", "--format", "csv",
            "--no-meta", "--out", str(target),
        )
        assert result.exit_code == 0
        assert target.read_text().startswith("form,k,value")

    def test_out_failure_is_nonzero(self, runner, tmp_path):
        missing_dir = tmp_path / "absent" / "report.csv"
        result = run(runner, "phi", "-k", "1", "-n", "3", "--out", str(missing_dir))
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "module, args",
        [
            (cli, ["phi", "-k", "8", "--range", "1453233"]),
            (cli, ["report", "menon", "-k", "2", "--nmax", "198509"]),
            (cli, ["report", "minimal-order", "-k", "3", "--primes", "3801"]),
            (averaging, ["report", "average", "-k", "8", "--xs", "6893383"]),
        ],
        ids=["phi --range", "report menon", "report minimal-order", "report average"],
    )
    def test_refusal_leaves_out_untouched(self, runner, admitted, tmp_path, module, args):
        # each command's first refused input, in plain text; one less is admitted
        smaller = [*args[:-1], str(int(args[-1]) - 1)]
        assert admitted(module, lambda: main(smaller, standalone_mode=False))
        existing, absent = tmp_path / "existing.txt", tmp_path / "absent.txt"
        existing.write_text("kept\n")
        for target in (existing, absent):
            result = run(runner, *args, "--out", str(target))
            assert result.exit_code == 3
            assert "(predicted" in result.output and " s of CPU and " in result.output
            assert "Traceback" not in result.output
        assert existing.read_text() == "kept\n"
        assert not absent.exists()

    @pytest.mark.parametrize(
        "args",
        [["phi", "-k", "3", "--range", "20000"], ["report", "menon", "-k", "2", "--nmax", "2000"]],
        ids=["phi --range", "report menon"],
    )
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_write_failures_exit_one(self, runner, tmp_path, args, fmt):
        targets = [tmp_path / "absent" / "report.txt"]
        if os.path.exists("/dev/full"):
            # opens, then fails with ENOSPC once the first buffer is flushed to it
            targets.append(Path("/dev/full"))
        for target in targets:
            result = run(runner, *args, "--format", fmt, "--out", str(target))
            assert result.exit_code == 1
            assert f"error: cannot write {target}: " in result.output
            assert "Traceback" not in result.output

    def test_menon_report_bytes_at_its_largest_k(self, runner):
        # the digest of the build-then-join renderer's output, which
        # converted the 300,000-bit counts with str()
        started = time.process_time()
        result = run(runner, "report", "menon", "-k", "65536", "--nmax", "22", "--format", "json", "--no-meta")
        assert result.exit_code == 0
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == "fd4625ac722f18475efe9357dbf9bf327ccbabec499e7d2b11d1ad74fe4bdf93"
        assert time.process_time() - started < 2.5  # 3.5 s with str()

    def test_range_output_streams(self, runner, tmp_path):
        # rows go to the file as they are rendered: the build-then-join
        # renderer peaked at 89 MB of traced memory here, 4 MB streaming
        import numpy  # noqa: F401  (loaded before tracing starts)

        target = tmp_path / "table.json"
        tracemalloc.start()
        try:
            result = run(runner, "phi", "-k", "5", "--range", "65568", "--format", "json", "--no-meta", "--out", str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        rows = json.loads(target.read_text())["rows"]
        assert len(rows) == 65568 and rows[-1] == {"k": "5", "n": "65568", "phi": str(phi_k(5, 65568))}
        assert peak < 16 * 10**6


class TestImportContract:
    """numpy and mpmath load only in the commands that compute with them."""

    @pytest.mark.parametrize(
        "args, numpy, mpmath",
        [
            (None, False, False),
            (["phi", "-k", "4", "-n", "1134493417"], False, False),
            (["rho", "-k", "3", "-l", "2", "-n", "45"], False, False),
            (["rho", "-k", "3", "-l", "4", "-n", "20"], False, False),
            (["report", "menon", "-k", "2", "--nmax", "100"], False, False),
            (["verify", "rho", "--limit", "12"], False, False),
            (["verify", "phi", "--limit", "10"], False, False),
            (["phi", "-k", "1", "--range", "10"], True, False),
            (["report", "constants", "-k", "2"], False, True),
            (["report", "minimal-order", "-k", "3"], False, True),
        ],
        ids=[
            "import", "phi -n", "rho odd n", "rho even n", "report menon", "verify rho", "verify phi",
            "phi --range", "report constants", "report minimal-order",
        ],
    )
    def test_libraries_loaded(self, args, numpy, mpmath):
        # a fresh interpreter, since this one has loaded both already
        script = "import sys\nimport sqtotient\n"
        if args is not None:
            script += f"from sqtotient.cli import main\nmain({args!r}, standalone_mode=False)\n"
        script += "print('numpy' in sys.modules, 'mpmath' in sys.modules)\n"
        src = str(Path(sqtotient.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == f"{numpy} {mpmath}"
