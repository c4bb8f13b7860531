"""Command-line contract: values, formats, determinism, exit codes."""

import csv
import io
import json
import time
import tracemalloc

import pytest
from click.testing import CliRunner

from sqtotient import trig_closed_form_rho8
from sqtotient.cli import main


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

    def test_sieve_size_guard(self, runner):
        # a sieve table at 3 * 10^8 would take 2.4 GB per array
        for args in (
            ("phi", "-k", "2", "--range", "300000000"),
            ("report", "average", "-k", "1", "--xs", "3,300000000"),
        ):
            tracemalloc.start()
            try:
                result = run(runner, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 3
            assert "sieve limit needs a budget of 300000000" in result.output
            assert peak < 10**7


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
        assert detail.endswith("29 cases checked, 13 skipped by the guard")

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

    def test_minimal_order_even_k_guarded(self, runner):
        assert run(runner, "report", "minimal-order", "-k", "2").exit_code == 2
        ok = run(runner, "report", "minimal-order", "-k", "2", "--experimental", "--no-meta")
        assert ok.exit_code == 0

    def test_minimal_order_output_size_guard(self, runner):
        huge = str(2**63 - 1)
        result = run(runner, "report", "minimal-order", "-k", huge, "--primes", "3")
        assert result.exit_code == 3
        assert "output bit length" in result.output
        even = run(runner, "report", "minimal-order", "-k", str(2**63 - 2), "--primes", "3", "--experimental")
        assert even.exit_code == 3

    def test_menon_table(self, runner):
        result = run(runner, "report", "menon", "-k", "2", "--nmax", "6", "--format", "csv", "--no-meta")
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["k", "n", "lhs", "phi_k", "psi", "integral"]
        assert rows[3] == ["2", "3", "16", "8", "2", "true"]

    def test_menon_mult_scan(self, runner):
        result = run(runner, "report", "menon-mult", "-k", "2", "--bound", "20", "--format", "json", "--no-meta")
        document = json.loads(result.output)
        assert all(set(row) == {"m", "n", "psi_m_psi_n", "psi_mn", "equal"} for row in document["rows"])

    @pytest.mark.parametrize("kind, option", [("menon", "--nmax"), ("menon-mult", "--bound")])
    def test_menon_bound_cap_exit_code(self, runner, kind, option):
        for value in (2**12 + 1, 2**63 - 1):
            result = run(runner, "report", kind, "-k", "2", option, str(value))
            assert result.exit_code == 3
            assert f"over the limit of {2**12}" in result.output
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
