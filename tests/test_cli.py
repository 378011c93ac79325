"""Command line behavior: output shapes, schemas, exit codes."""

import io
import json
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import robinaudit
from robinaudit import cli, intervals
from robinaudit.cli import main
from robinaudit.errors import InvariantError
from robinaudit.primes import PrimeTable
from oracles import eps_inside_ca_bracket
from test_factored import REFUSALS

CAND_5040 = '{"exponents": [4, 2, 1, 1]}'
CAND_30030 = '{"exponents": [1, 1, 1, 1, 1, 1]}'


def schema(name):
    text = resources.files("robinaudit").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


class TestVerifyCommand:
    def test_json_report_and_exit_code(self, capsys):
        code, out, _ = run_cli(["verify", "--from", "3", "--to", "30"], capsys)
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, schema("verify_report.schema.json"))
        ns = [v["n"] for v in payload["violations"]]
        assert ns == [3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30]
        assert payload["unknowns"] == []

    def test_clean_range_exits_zero(self, capsys):
        code, out, _ = run_cli(["verify", "--from", "5041", "--to", "6000"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == 960
        assert payload["violations"] == []

    def test_from_clamped_to_three(self, capsys):
        code, out, _ = run_cli(["verify", "--from", "1", "--to", "10"], capsys)
        assert json.loads(out)["from"] == 3

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--from", "3", "--to", "10", "--format", "csv"], capsys
        )
        lines = out.strip().split("\n")
        assert lines[0] == "n,sigma,rho_num,rho_den,verdict"
        assert lines[1] == "3,4,4,3,fails"
        assert len(lines) == 8  # 3 4 5 6 8 9 10

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--from", "5041", "--to", "5100", "--format", "text"],
            capsys,
        )
        assert "violations: 0" in out and code == 0

    def test_scientific_bounds_accepted(self, capsys):
        code, out, _ = run_cli(["verify", "--from", "5041", "--to", "1e4"],
                               capsys)
        assert code == 0
        assert json.loads(out)["to"] == 10000

    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "--from", "10", "--to", "5"], capsys)
        assert code == 64

    def test_range_above_cap_is_usage_error(self, capsys):
        # sigma(n) would overflow int64; the answer is exit 64, never 70
        code, out, err = run_cli(["verify", "--from", "1e19", "--to", "1e19"],
                                 capsys)
        assert code == 64
        assert out == ""
        assert "10^18" in err and "internal error" not in err


class TestSaCommand:
    def test_records_prefix(self, capsys):
        code, out, _ = run_cli(["sa", "--limit", "100"], capsys)
        assert code == 0
        ns = [r["n"] for r in json.loads(out)["records"]]
        assert ns == [1, 2, 4, 6, 12, 24, 36, 48, 60]

    def test_csv(self, capsys):
        code, out, _ = run_cli(["sa", "--limit", "10", "--format", "csv"],
                               capsys)
        assert out.startswith("n,sigma,rho_num,rho_den\n1,1,1,1\n")


class TestCaCommand:
    def test_single_epsilon(self, capsys):
        code, out, _ = run_cli(["ca", "--epsilon", "1/20"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["candidate"]["n"] == 2520
        cand_doc = {"runs": payload["candidate"]["runs"]}
        jsonschema.validate(cand_doc, schema("candidate.schema.json"))

    def test_decimal_epsilon_matches_fraction(self, capsys):
        _, out_a, _ = run_cli(["ca", "--epsilon", "0.05"], capsys)
        _, out_b, _ = run_cli(["ca", "--epsilon", "1/20"], capsys)
        a = json.loads(out_a)["candidate"]["runs"]
        b = json.loads(out_b)["candidate"]["runs"]
        assert a == b

    def test_sweep(self, capsys):
        code, out, _ = run_cli(["ca", "--count", "8"], capsys)
        assert code == 0
        ns = [c["n"] for c in json.loads(out)["candidates"]]
        assert ns == [2, 6, 12, 60, 120, 360, 2520, 5040]

    def test_empty_candidate_is_negative(self, capsys):
        code, _, err = run_cli(["ca", "--epsilon", "1"], capsys)
        assert code == 1
        assert "empty exponent vector" in err

    def test_nonpositive_epsilon_is_usage_error(self, capsys):
        code, _, _ = run_cli(["ca", "--epsilon", "0"], capsys)
        assert code == 64
        code, _, _ = run_cli(["ca", "--epsilon", "-1/2"], capsys)
        assert code == 64

    @pytest.mark.parametrize("eps", ["1e-5000", "1e300000", "1e20000000"])
    def test_epsilon_of_too_many_digits_is_usage_error(self, eps, capsys):
        # refused before 10^exponent is formed
        code, out, err = run_cli(["ca", "--epsilon", eps], capsys)
        assert code == 64 and out == ""
        assert "4300 digits" in err and "internal error" not in err

    def test_tiny_epsilon_answers_quickly(self, capsys):
        # a(2) = 14,280 here: its probes above about 2,000 are decided by
        # the exact bracket of log F, doubling reaches it in a few dozen
        # probes, and every prime of the default table has exponent >= 1
        t0 = time.monotonic()
        code, _, err = run_cli(["ca", "--epsilon", "1e-4299"], capsys)
        assert time.monotonic() - t0 < 2
        assert code == 65 and "enlarge the table" in err
        # the denominator's 4,300 digits are named by their bit count
        assert "eps=1/<14281-bit integer>" in err and len(err) < 400

    def test_undecided_probe_is_inconclusive(self, capsys):
        # eps log 2 lies inside the bracket of log F for the probe
        # a(2) >= 1500, where 2048 bits cannot place it; the suggested
        # 4096 bits decide power_below's comparison itself
        eps = eps_inside_ca_bracket(1500, 1)
        argv = ["ca", "--epsilon", f"{eps.numerator}/{eps.denominator}"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "straddles a power boundary" in err
        assert "retry with --precision 4096" in err
        code, _, err = run_cli(argv + ["--precision", "4096"], capsys)
        assert code == 65 and "enlarge the table" in err

    def test_wide_candidate_has_no_integer(self, capsys):
        # the candidate's n has more than 4,096 bits, so only its runs print
        code, out, _ = run_cli(["ca", "--epsilon", "1e-5"], capsys)
        assert code == 0
        candidate = json.loads(out)["candidate"]
        assert candidate["n"] is None and candidate["r"] == 1311

    def test_epsilon_and_count_exclusive(self, capsys):
        code, _, _ = run_cli(
            ["ca", "--epsilon", "1/2", "--count", "3"], capsys
        )
        assert code == 64


class TestAuditCommand:
    def test_excluded_candidate(self, capsys):
        code, out, _ = run_cli(["audit", CAND_5040], capsys)
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, schema("audit_report.schema.json"))
        assert payload["summary"]["result"] == "excluded"
        assert set(payload["summary"]["excluded_by"]) >= {
            "size_floor_C", "log_window_2", "vojak_D1", "exponents_E",
        }

    def test_output_deterministic(self, capsys):
        _, out_a, _ = run_cli(["audit", CAND_5040], capsys)
        _, out_b, _ = run_cli(["audit", CAND_5040], capsys)
        assert out_a == out_b

    def test_candidate_from_file(self, capsys, tmp_path):
        path = tmp_path / "cand.json"
        path.write_text(CAND_5040)
        code, out, _ = run_cli(["audit", f"@{path}"], capsys)
        assert code == 1 and json.loads(out)["summary"]["result"] == "excluded"

    def test_candidate_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(CAND_5040))
        code, out, _ = run_cli(["audit", "-"], capsys)
        assert code == 1

    def test_missing_file_is_format_error(self, capsys, tmp_path):
        code, _, err = run_cli(["audit", f"@{tmp_path}/absent.json"], capsys)
        assert code == 66 and "candidate format" in err

    def test_malformed_candidate_is_format_error(self, capsys):
        code, _, err = run_cli(["audit", '{"exponents": [1, "x"]}'], capsys)
        assert code == 66
        assert "exponents[1]" in err

    @pytest.mark.parametrize("doc, field", [
        (doc, field) for doc, field, _ in REFUSALS.values()], ids=REFUSALS.keys())
    def test_refused_candidate_is_format_error(self, doc, field, capsys):
        code, out, err = run_cli(["audit", json.dumps(doc)], capsys)
        assert code == 66 and out == ""
        assert f"candidate format error: {field}: " in err

    @pytest.mark.parametrize("text", [
        '{"runs": [{"exponent": %s, "count": 1}]}' % ("9" * 5000),
        '{"exponents": [%s]}' % ("9" * 5000),
        "[" * 100000 + "]" * 100000,
    ], ids=["runs", "exponents", "nested"])
    def test_unparsable_candidate_is_format_error(self, text, capsys):
        # json.loads raises ValueError or RecursionError, not JSONDecodeError
        code, out, err = run_cli(["audit", text], capsys)
        assert code == 66 and out == ""
        assert "candidate format" in err and "internal error" not in err

    def test_huge_exponents_are_excluded(self, capsys):
        # log n near 2^206: U's bracket walk for 2 passes 199 brackets
        text = '{"runs": [{"exponent": 1%s, "count": 2}]}' % ("0" * 62)
        code, out, _ = run_cli(["audit", text], capsys)
        assert code == 1 and json.loads(out)["summary"]["result"] == "excluded"

    def test_inconclusive_with_small_table(self, capsys):
        cand = json.dumps({
            "runs": [
                {"exponent": 20, "count": 1}, {"exponent": 13, "count": 1},
                {"exponent": 8, "count": 1}, {"exponent": 7, "count": 1},
                {"exponent": 6, "count": 1},
                {"exponent": 1, "count": 10**9},
            ]
        })
        code, out, _ = run_cli(
            ["audit", cand, "--prime-limit", "1000"], capsys
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["summary"]["result"] == "inconclusive"
        assert payload["summary"]["excluded_by"] == []

    def test_alt_log_window_flag(self, capsys):
        code, out, _ = run_cli(
            ["audit", CAND_5040, "--alt-log-window"], capsys
        )
        payload = json.loads(out)
        jsonschema.validate(payload, schema("audit_report.schema.json"))
        assert len(payload["checks"]) == 18
        assert payload["extra_checks"][0]["id"] == "log_window_alt"
        assert "log_window_alt" not in payload["summary"]["excluded_by"]

    def test_csv_lists_all_checks(self, capsys):
        code, out, _ = run_cli(["audit", CAND_5040, "--format", "csv"], capsys)
        lines = out.strip().split("\n")
        assert lines[0] == "check_id,status,precision_used"
        assert len(lines) == 19

    def test_witnesses_formatted_only_for_json(self, capsys, monkeypatch):
        calls = []
        real = intervals._mpf_to_decimal_str

        def counting(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(intervals, "_mpf_to_decimal_str", counting)
        for fmt in ("csv", "text"):
            code, out, _ = run_cli(["audit", CAND_5040, "--format", fmt], capsys)
            assert code == 1 and out
            assert calls == [], fmt
        run_cli(["audit", CAND_5040, "--format", "json"], capsys)
        assert calls

    def test_precision_flag_recorded(self, capsys):
        _, out, _ = run_cli(["audit", CAND_5040, "--precision", "192"], capsys)
        assert json.loads(out)["precision_bits"] == 192


def _runs_spanning(r):
    """Falling exponents on a short head, then exponent 1, r primes in all."""
    head = min(r - 1, 4)
    runs = [(head + 1 - k, 1) for k in range(head)] + [(1, r - head)]
    return json.dumps({"runs": [{"exponent": e, "count": n} for e, n in runs]})


class TestTableSizing:
    """audit and normalize sieve only as far as the candidate needs; their
    output must be what the full table to --prime-limit gives."""

    @pytest.mark.parametrize("limit", [1000, cli._DEFAULT_PRIME_LIMIT])
    def test_output_matches_full_table(self, limit, capsys, monkeypatch,
                                       table_1e6):
        full = table_1e6 if limit == table_1e6.limit else PrimeTable.build(limit)
        pi = len(full)
        for r in [*range(1, 13), 50, pi - 1, pi, pi + 1]:
            cand = _runs_spanning(r)
            sized = []
            for argv in (["audit", cand], ["audit", cand, "--alt-log-window"],
                         ["normalize", cand, "--step-limit", "3"]):
                argv = argv + ["--prime-limit", str(limit)]
                sized.append(run_cli(argv, capsys))
                with monkeypatch.context() as m:
                    m.setattr(cli, "_table_for", lambda r, limit: full)
                    assert run_cli(argv, capsys) == sized[-1], (r, argv)
            if r > pi:
                audit_doc = json.loads(sized[0][1])
                assert {ch["witness"].get("table_primes")
                        for ch in audit_doc["checks"]
                        if ch["status"] == "unknown"} == {pi}
                code, _, err = sized[2]
                assert code == 65 and f"table holds {pi}" in err

    @pytest.mark.parametrize("command, code", [("audit", 1), ("normalize", 65)])
    def test_run_count_past_float_range(self, command, code, capsys):
        # p_r > r, so no bound is formed; a float product of 10^400 overflows
        for r in (10**300, 10**400):
            assert run_cli([command, _runs_spanning(r)], capsys)[0] == code, r

    def test_prime_bound_covers_the_default_table(self, table_1e6):
        primes = table_1e6.slice(1, len(table_1e6)).tolist()
        assert all(cli._prime_bound(r) >= p for r, p in enumerate(primes, 1))

    def test_repeated_main_matches_fresh_processes(self, capsys, tmp_path):
        commands = [
            ["audit", CAND_5040, "--format", "text"],
            ["verify", "--from", "3", "--to", "60", "--format", "csv"],
            ["normalize", CAND_30030],
            ["audit", CAND_30030, "--alt-log-window", "--format", "csv",
             "--prime-limit", "100"],
            ["sa", "--limit", "100", "--format", "text"],
            ["ca", "--epsilon", "1/20", "--prime-limit", "1000"],
            ["verify", "--from", "3"],
        ]
        fresh = []
        for argv in commands:
            proc = run_child(["-m", "robinaudit", *argv], tmp_path)
            fresh.append((proc.returncode, proc.stdout))
        for _ in range(2):
            for argv, expect in zip(commands, fresh):
                code, out, _ = run_cli(argv, capsys)
                assert (code, out) == expect, argv


class TestNormalizeCommand:
    def test_in_window_exit_zero(self, capsys):
        code, out, _ = run_cli(["normalize", CAND_30030], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("normalize_report.schema.json"))
        assert payload["status"] == "in_window"
        assert [s["action"] for s in payload["trace"]] == ["swap", "swap"]

    def test_blocked_exit_two(self, capsys):
        code, out, _ = run_cli(["normalize", '{"exponents": [1, 2]}'], capsys)
        assert code == 2
        assert json.loads(out)["status"] == "blocked_log_window"

    def test_step_limit(self, capsys):
        code, out, _ = run_cli(
            ["normalize", CAND_30030, "--step-limit", "1"], capsys
        )
        assert code == 2 and json.loads(out)["status"] == "step_limit"

    def test_csv_trace(self, capsys):
        code, out, _ = run_cli(
            ["normalize", CAND_30030, "--format", "csv"], capsys
        )
        lines = out.strip().split("\n")
        assert lines[0] == "step,action,index,prime,removed_prime"
        assert lines[1] == "1,swap,2,3,13"
        assert len(lines) == 3


class TestPrecisionResolution:
    def test_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("ROBIN_PRECISION_BITS", "96")
        _, out, _ = run_cli(["audit", CAND_5040], capsys)
        assert json.loads(out)["precision_bits"] == 96

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ROBIN_PRECISION_BITS", "96")
        _, out, _ = run_cli(["audit", CAND_5040, "--precision", "128"], capsys)
        assert json.loads(out)["precision_bits"] == 128

    def test_low_precision_rejected(self, capsys):
        code, _, err = run_cli(["audit", CAND_5040, "--precision", "32"],
                               capsys)
        assert code == 64
        assert "at least 64" in err

    def test_bad_env_value_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("ROBIN_PRECISION_BITS", "plenty")
        code, _, err = run_cli(["audit", CAND_5040], capsys)
        assert code == 64

    @pytest.mark.parametrize("bits", ["65537", "10000000", "1" + "0" * 4000])
    def test_high_precision_rejected(self, bits, capsys, monkeypatch):
        # past 2^16 bits an endpoint in [1, 2) can no longer be written
        code, out, err = run_cli(["selftest", "--precision", bits], capsys)
        assert code == 64 and out == "" and "at most 65536" in err
        monkeypatch.setenv("ROBIN_PRECISION_BITS", bits)
        code, out, err = run_cli(["selftest"], capsys)
        assert code == 64 and out == "" and "at most 65536" in err

    def test_audit_at_8192_bits_writes_long_endpoints(self, capsys):
        # endpoints of more than 4300 digits, which str(int) refuses
        code, out, _ = run_cli(["audit", CAND_5040, "--precision", "8192"],
                               capsys)
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, schema("audit_report.schema.json"))
        assert max(map(len, re.findall(r'"-?[0-9]+\.[0-9]+"', out))) > 4300


class TestUsage:
    def test_no_command(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 64

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 64

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(["verify", "--from", "3"], capsys)
        assert code == 64

    def test_bad_integer(self, capsys):
        code, _, _ = run_cli(["verify", "--from", "x", "--to", "5"], capsys)
        assert code == 64

    @pytest.mark.parametrize("argv, said", [
        (["verify", "--from", "1.5", "--to", "10"], "not an integer: '1.5'"),
        (["sa", "--limit", "0"], "must be positive: '0'"),
        (["ca", "--epsilon", "inf"], "not a number: 'inf'"),
        (["ca", "--epsilon", "1/0"], "not a number: '1/0'"),
    ], ids=["fractional_integer", "zero_count", "infinite_epsilon",
            "zero_denominator"])
    def test_refused_argument_is_usage_error(self, argv, said, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 64 and out == ""
        assert said in err and "internal error" not in err

    @pytest.mark.parametrize("argv, said", [
        (["verify", "--from", "5041", "--to", "1e5000"], "4300 digits"),
        (["verify", "--from", "5041", "--to", "9" * 5000], "4300 digits"),
        (["verify", "--from", "5041", "--to", "1e1000000"], "4300 digits"),
        (["sa", "--limit", "1e200000"], "4300 digits"),
        (["verify", "--from", "5041", "--to", "inf"], "not an integer"),
        # 4300 digits pass, and the range check names only their size
        (["verify", "--from", "5041", "--to", "1e4299"], "14281-bit integer"),
        (["sa", "--limit", "9" * 4300], "14285-bit integer"),
    ])
    def test_huge_integer_is_usage_error(self, argv, said, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 64 and out == ""
        assert said in err and "internal error" not in err

    @pytest.mark.parametrize("argv", [
        ["ca", "--count", "1", "--prime-limit", "1e40"],
        # the table sized to this candidate would reach about 10^42
        ["audit", '{"runs": [{"exponent": 1, "count": %d}]}' % 10**40,
         "--prime-limit", "1e60"],
    ])
    def test_prime_limit_above_2_to_32_is_resource_budget(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 65 and out == ""
        assert "is above 2^32" in err and "internal error" not in err

    @pytest.mark.parametrize("exc", [InvariantError("cross-check failed"),
                                     RuntimeError("unexpected")])
    def test_internal_error_exits_70(self, capsys, monkeypatch, exc):
        def broken_audit(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "full_audit", broken_audit)
        code, out, err = run_cli(["audit", CAND_5040], capsys)
        assert code == 70
        assert out == ""
        assert type(exc).__name__ in err and "internal error" in err


class TestSelftest:
    def test_all_green(self, capsys):
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(c["ok"] for c in payload["checks"])
        assert len(payload["checks"]) == 5


class TestSchemas:
    def test_candidate_schema_rejects_zero_count(self):
        doc = {"runs": [{"exponent": 2, "count": 0}]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema("candidate.schema.json"))

    def test_candidate_schema_rejects_mixed_forms(self):
        doc = {"runs": [{"exponent": 1, "count": 1}], "exponents": [1]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema("candidate.schema.json"))

    @pytest.mark.parametrize("doc", [
        {"runs": [{"exponent": 1, "count": 1}], "exponents": [4, 2, 1, 1]},
        {"exponents": [4, 2, 1, 1], "note": "5040"},
        {"runs": [{"exponent": 1, "count": 1, "prime": 2}]},
    ])
    def test_cli_rejects_what_the_candidate_schema_rejects(self, doc, capsys):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema("candidate.schema.json"))
        code, out, err = run_cli(["audit", json.dumps(doc)], capsys)
        assert code == 66 and out == "" and "candidate format" in err

    def test_candidate_schema_accepts_zero_exponents_form(self):
        jsonschema.validate({"exponents": [0, 2]},
                            schema("candidate.schema.json"))

    @pytest.mark.parametrize("doc", [
        {"exponents": [0]},
        {"runs": [{"exponent": 0, "count": 2}]},
    ])
    def test_all_zero_candidate_is_format_error(self, doc, capsys):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema("candidate.schema.json"))
        code, out, err = run_cli(["audit", json.dumps(doc)], capsys)
        assert code == 66 and out == "" and "candidate format" in err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What the console-script wrapper an installer writes does: load the
# entry point, hand it the command line, exit with its return value.
_LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
ep = EntryPoint(name=sys.argv[1], value=sys.argv[2], group="console_scripts")
sys.argv = sys.argv[1:2] + sys.argv[3:]
sys.exit(ep.load()())
"""


def pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    return tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))


def run_console_script(args, cwd):
    """Run the declared ``robinaudit`` script without needing it on PATH.

    The child uses the interpreter running the tests and imports the
    ``robinaudit`` package this process imported, not an installed copy.
    """
    target = pyproject()["project"]["scripts"]["robinaudit"]
    return run_child(["-c", _LAUNCHER, "robinaudit", target, *args], cwd)


def run_child(args, cwd):
    """``sys.executable`` with ``args``, importing the ``robinaudit``
    package this process imported, with ROBIN_PRECISION_BITS removed."""
    pkg_root = str(Path(robinaudit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "ROBIN_PRECISION_BITS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


class TestConsoleScript:
    def test_entry_point_version(self, tmp_path):
        proc = run_console_script(["--version"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        version = proc.stdout.strip()
        assert version == pyproject()["project"]["version"]
        assert version == robinaudit.__version__

    def test_entry_point_exit_code(self, tmp_path):
        proc = run_console_script(
            ["audit", CAND_5040, "--prime-limit", "100"], tmp_path
        )
        # A crash also exits 1, so the report itself must be there.
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, schema("audit_report.schema.json"))
        assert payload["summary"]["result"] == "excluded"

    def test_python_dash_m(self, tmp_path):
        proc = run_child(["-m", "robinaudit", "--version"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == robinaudit.__version__
        proc = run_child(
            ["-m", "robinaudit", "audit", CAND_5040, "--prime-limit", "100"],
            tmp_path,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["summary"]["result"] == "excluded"
