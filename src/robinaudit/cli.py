"""Command line front end.

Exit codes: 0 positive result (no violations, survives, in window),
1 negative result (violations found, candidate excluded, no candidate at
this epsilon), 2 inconclusive (unknown verdicts, blocked normalization,
precision exhausted), 64 usage, 65 resource budget, 66 candidate format,
70 internal error (a bug, never a verdict; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import math
import os
import sys
import traceback
from fractions import Fraction
from typing import NamedTuple, Optional

from . import __version__
from .audit import EXCLUDED, INCONCLUSIVE, IN_WINDOW, full_audit, normalize
from .errors import (
    CandidateFormatError,
    DomainError,
    PrecisionError,
    ResourceBudgetError,
    _int_text,
    _json_text,
)
from .factored import CandidateFactorization, materialize
from .generators import (ca_candidate, ca_sweep, robin_exceptions,
                         superabundant_up_to, verify_range)
from .intervals import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    _MAX_SERIAL_FRACTION_BITS,
    interval_to_json,
    iv_round,
)
from .primes import _MAX_LIMIT, PrimeTable

_ENV_PRECISION = "ROBIN_PRECISION_BITS"
_DEFAULT_PRIME_LIMIT = 1_000_000
# CPython converts no int of more digits from or to a string.
_MAX_DIGITS = 4300

EX_OK = 0
EX_NEGATIVE = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_RESOURCE = 65
EX_FORMAT = 66
EX_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here wants 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _int_arg(text: str) -> int:
    """A decimal integer, digits or exponent form (1e7); at most
    _MAX_DIGITS digits, checked before an exponent form is expanded."""
    try:
        d = decimal.Decimal(text.replace("_", ""))
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not d.is_finite():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if d.adjusted() >= _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {_MAX_DIGITS} digits")
    if d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(d)


def _positive_int(text: str) -> int:
    v = _int_arg(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return v


def _fraction_arg(text: str) -> Fraction:
    """p/q, a decimal or an exponent form (5e-2); a numerator or denominator
    past _MAX_DIGITS digits is refused, before an exponent is expanded."""
    try:
        _, digits, exp = decimal.Decimal(text).as_tuple()
    except decimal.InvalidOperation:
        digits, exp = (), 0  # p/q: int() refuses either side past the limit
    if not isinstance(exp, int):  # infinity or NaN
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if max(len(digits) + max(exp, 0), 1 - min(exp, 0)) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {_MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--precision", type=_positive_int, default=None, metavar="BITS",
        help=f"working precision in bits (default {DEFAULT_PRECISION_BITS}, "
             f"at most {_MAX_SERIAL_FRACTION_BITS}, or the {_ENV_PRECISION} "
             f"environment variable)",
    )
    p.add_argument(
        "--prime-limit", type=_positive_int, default=None, metavar="N",
        help=f"largest prime sieved (default {_DEFAULT_PRIME_LIMIT}); "
             f"audit and normalize sieve only as far as the candidate needs",
    )
    p.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json)",
    )


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="robinaudit",
        description="Certified checks for the divisor-sum inequality and "
                    "audits of least-counterexample candidates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)

    p = sub.add_parser(
        "verify", help="certify the inequality for every integer in a range"
    )
    p.add_argument("--from", dest="lo", type=_int_arg, required=True,
                   metavar="N", help="start of the range (clamped up to 3)")
    p.add_argument("--to", dest="hi", type=_int_arg, required=True,
                   metavar="N", help="end of the range, inclusive")
    _add_common(p)

    p = sub.add_parser(
        "sa", help="record-setters of sigma(n)/n up to a limit"
    )
    p.add_argument("--limit", type=_positive_int, required=True, metavar="N")
    _add_common(p)

    p = sub.add_parser(
        "ca", help="extremal candidates from the one-parameter construction"
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--epsilon", type=_fraction_arg, metavar="EPS",
                   help="single candidate at this parameter (fraction or decimal)")
    g.add_argument("--count", type=_positive_int, metavar="K",
                   help="sweep the parameter downward until K distinct candidates")
    _add_common(p)

    p = sub.add_parser(
        "audit", help="run every necessary-condition check on a candidate"
    )
    p.add_argument("candidate", metavar="CANDIDATE",
                   help="candidate JSON, @file, or - for stdin")
    p.add_argument("--alt-log-window", action="store_true",
                   help="append the informational alternative log window check")
    _add_common(p)

    p = sub.add_parser(
        "normalize", help="drive a candidate into the exponent window"
    )
    p.add_argument("candidate", metavar="CANDIDATE",
                   help="candidate JSON, @file, or - for stdin")
    p.add_argument("--step-limit", type=_positive_int, default=10000,
                   metavar="K", help="maximum number of steps (default 10000)")
    _add_common(p)

    p = sub.add_parser("selftest", help="run built-in consistency checks")
    _add_common(p)

    return parser


def _resolve_precision(args, parser: _Parser) -> int:
    prec = getattr(args, "precision", None)
    if prec is None:
        raw = os.environ.get(_ENV_PRECISION)
        if raw is not None:
            try:
                prec = int(raw)
            except ValueError:
                parser.error(f"{_ENV_PRECISION} is not an integer: {raw!r}")
        else:
            prec = DEFAULT_PRECISION_BITS
    # past the maximum, endpoints in [1, 2) can no longer be written exactly
    if not MIN_PRECISION_BITS <= prec <= _MAX_SERIAL_FRACTION_BITS:
        parser.error(f"precision must be at least {MIN_PRECISION_BITS} and "
                     f"at most {_MAX_SERIAL_FRACTION_BITS} bits, "
                     f"got {_int_text(prec)}")
    return prec


def _prime_bound(r: int) -> int:
    """An upper bound on p_r: r (ln r + ln ln r) for r >= 6 (Rosser and
    Schoenfeld), else p_5 = 11."""
    if r < 6:
        return 11
    return math.ceil(r * (math.log(r) + math.log(math.log(r))))


def _table_for(r: int, limit: int) -> PrimeTable:
    """Primes up to min(limit, bound on p_r): audit and normalize read no
    table position above r.  When that table misses p_r, the full table,
    so coverage never rests on the bound and an uncovered candidate
    reports pi(limit).  p_r > r, so from r = min(limit, 2^32) on no table
    holds p_r; the bound, a float product that overflows, is skipped."""
    if r < min(limit, _MAX_LIMIT):
        bound = _prime_bound(r)
        if bound < limit:
            t = PrimeTable.build(bound)
            if len(t) >= r:
                return t
    return PrimeTable.build(limit)


def _load_candidate(arg: str) -> CandidateFactorization:
    if arg == "-":
        text = sys.stdin.read()
    elif arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise CandidateFormatError("file", str(e)) from e
    else:
        text = arg
    return CandidateFactorization.from_json(text)


class _Output(NamedTuple):
    """One command's result in every output format."""

    payload: object          # --format json
    header: list[str]        # --format csv
    rows: list[list]
    lines: list[str]         # --format text


def _emit(fmt: str, out: _Output) -> None:
    if fmt == "json":
        sys.stdout.write(_json_text(out.payload) + "\n")
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(out.header)
        w.writerows(out.rows)
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write("".join(line + "\n" for line in out.lines))


def _record_json(rec, prec: int) -> dict:
    rho = rec.rho
    return {
        "n": rec.n,
        "sigma": rec.sigma,
        "rho": {"num": rho.numerator, "den": rho.denominator},
        "threshold": interval_to_json(iv_round(rec.threshold, prec)),
        "verdict": rec.verdict,
    }


def _record_row(rec) -> list:
    rho = rec.rho
    return [rec.n, rec.sigma, rho.numerator, rho.denominator, rec.verdict]


def _cmd_verify(args, prec: int, limit: int) -> tuple[int, _Output]:
    result = verify_range(max(3, args.lo), args.hi, prec=prec)
    flagged = list(result.violations) + list(result.unknowns)
    out = _Output(
        {
            "from": result.lo,
            "to": result.hi,
            "checked": result.checked,
            "violations": [_record_json(r, prec) for r in result.violations],
            "unknowns": [_record_json(r, prec) for r in result.unknowns],
        },
        ["n", "sigma", "rho_num", "rho_den", "verdict"],
        [_record_row(r) for r in flagged],
        [f"checked {result.checked} integers in [{result.lo}, {result.hi}]"]
        + [f"  n={rec.n} sigma={rec.sigma} verdict={rec.verdict}" for rec in flagged]
        + [f"violations: {len(result.violations)}  "
           f"unknowns: {len(result.unknowns)}"],
    )
    if result.violations:
        return EX_NEGATIVE, out
    if result.unknowns:
        return EX_INCONCLUSIVE, out
    return EX_OK, out


def _cmd_sa(args, prec: int, limit: int) -> tuple[int, _Output]:
    records = superabundant_up_to(args.limit)
    return EX_OK, _Output(
        {
            "limit": args.limit,
            "records": [
                {"n": r.n, "sigma": r.sigma,
                 "rho": {"num": r.rho.numerator, "den": r.rho.denominator}}
                for r in records
            ],
        },
        ["n", "sigma", "rho_num", "rho_den"],
        [[r.n, r.sigma, r.rho.numerator, r.rho.denominator] for r in records],
        [f"n={r.n} sigma={r.sigma}" for r in records]
        + [f"records: {len(records)}"],
    )


def _candidate_entry(c: CandidateFactorization, t: PrimeTable) -> dict:
    entry = dict(c.to_json())
    entry["r"] = c.r
    try:
        entry["n"] = materialize(c, t, max_bits=1 << 12)
    except ResourceBudgetError:
        entry["n"] = None
    return entry


def _cmd_ca(args, prec: int, limit: int) -> tuple[int, Optional[_Output]]:
    table = PrimeTable.build(limit)
    if args.epsilon is not None:
        if args.epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {args.epsilon}")
        try:
            c = ca_candidate(args.epsilon, table, prec=prec)
        except DomainError as e:
            print(f"no candidate at epsilon = {args.epsilon}: {e}",
                  file=sys.stderr)
            return EX_NEGATIVE, None
        entry = _candidate_entry(c, table)
        return EX_OK, _Output(
            {"epsilon": str(args.epsilon), "candidate": entry},
            ["r", "n", "runs"],
            [[entry["r"], entry["n"], str(c)]],
            [f"epsilon={args.epsilon} r={c.r} n={entry['n']} {c}"],
        )
    cands = ca_sweep(args.count, table, prec=prec)
    entries = [_candidate_entry(c, table) for c in cands]
    return EX_OK, _Output(
        {"count": args.count, "candidates": entries},
        ["r", "n", "runs"],
        [[e["r"], e["n"], str(c)] for e, c in zip(entries, cands)],
        [f"r={e['r']} n={e['n']} {c}" for e, c in zip(entries, cands)],
    )


def _cmd_audit(args, prec: int, limit: int) -> tuple[int, _Output]:
    c = _load_candidate(args.candidate)
    report = full_audit(c, _table_for(c.r, limit), prec=prec,
                        include_alt_log_window=args.alt_log_window)
    checks = report.checks + report.extra_checks
    lines = [f"{cid:16s} {v.status}" for cid, v in checks]
    lines.append(f"result: {report.result}")
    if report.excluded_by:
        lines.append("excluded_by: " + " ".join(report.excluded_by))
    if report.unknown_checks:
        lines.append("unknown: " + " ".join(report.unknown_checks))
    # Serializing rounds and formats every witness; only json prints it.
    out = _Output(
        report.to_json() if args.format == "json" else None,
        ["check_id", "status", "precision_used"],
        [[cid, v.status, v.precision_used] for cid, v in checks],
        lines,
    )
    if report.result == EXCLUDED:
        return EX_NEGATIVE, out
    if report.result == INCONCLUSIVE:
        return EX_INCONCLUSIVE, out
    return EX_OK, out


def _cmd_normalize(args, prec: int, limit: int) -> tuple[int, _Output]:
    c = _load_candidate(args.candidate)
    result = normalize(c, _table_for(c.r, limit), prec=prec,
                       step_limit=args.step_limit)
    steps = list(enumerate(result.trace, 1))
    out = _Output(
        result.to_json() if args.format == "json" else None,
        ["step", "action", "index", "prime", "removed_prime"],
        [[i, s["action"], s["index"], s["prime"], s.get("removed_prime", "")]
         for i, s in steps],
        [f"step {i}: {s['action']} at index {s['index']} (prime {s['prime']})"
         for i, s in steps]
        + [f"status: {result.status} after {result.steps} steps",
           f"candidate: {result.candidate}"],
    )
    return (EX_OK if result.status == IN_WINDOW else EX_INCONCLUSIVE), out


def _selftest_checks(prec: int):
    from .audit import _upper_bound, compute_l
    from .intervals import (
        constants, interval_from_json, iv_certainly_less, iv_from_int,
    )
    from .factored import big_g

    def prime_count():
        return len(PrimeTable.build(10**5)) == 9592

    def classical_exceptions():
        ns = robin_exceptions(prec)
        return len(ns) == 26 and ns[-1] == 5040

    def g_straddles_threshold():
        t = PrimeTable.build(100)
        g1 = big_g(CandidateFactorization.from_exponents([4, 2, 1, 1]), t, prec)
        g2 = big_g(CandidateFactorization.from_exponents([4, 2, 1, 1, 1]), t, prec)
        eg = constants(prec).exp_gamma
        return iv_certainly_less(eg, g1) and iv_certainly_less(g2, eg)

    def window_bounds():
        lg = iv_from_int(100)
        return (_upper_bound(lg, 2) == 9
                and _upper_bound(lg, 7) == 2
                and compute_l(97, 2) == 6)

    def interval_round_trip():
        g = constants(prec).gamma
        back = interval_from_json(interval_to_json(g))
        return back.lo == g.lo and back.hi == g.hi

    return [
        ("prime_count_1e5", prime_count),
        ("classical_exceptions", classical_exceptions),
        ("g_straddles_threshold", g_straddles_threshold),
        ("window_bounds", window_bounds),
        ("interval_round_trip", interval_round_trip),
    ]


def _cmd_selftest(args, prec: int, limit: int) -> tuple[int, _Output]:
    results = []
    for name, fn in _selftest_checks(prec):
        try:
            ok = bool(fn())
        except Exception as e:  # a selftest must report, not crash
            ok = False
            results.append({"name": name, "ok": False, "error": str(e)})
            continue
        results.append({"name": name, "ok": ok})
    all_ok = all(r["ok"] for r in results)
    return (EX_OK if all_ok else EX_NEGATIVE), _Output(
        {"checks": results, "ok": all_ok},
        ["name", "ok"],
        [[r["name"], r["ok"]] for r in results],
        [f"{'ok' if r['ok'] else 'FAIL'} {r['name']}" for r in results],
    )


# command -> handler(args, precision, prime limit)
_COMMANDS = {
    "verify": _cmd_verify,
    "sa": _cmd_sa,
    "ca": _cmd_ca,
    "audit": _cmd_audit,
    "normalize": _cmd_normalize,
    "selftest": _cmd_selftest,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required")
    prec = _resolve_precision(args, parser)
    limit = args.prime_limit or _DEFAULT_PRIME_LIMIT

    try:
        code, out = _COMMANDS[args.command](args, prec, limit)
        if out is not None:
            _emit(args.format, out)
        return code
    except CandidateFormatError as e:
        print(f"robinaudit: candidate format error: {e}", file=sys.stderr)
        return EX_FORMAT
    except ResourceBudgetError as e:
        print(f"robinaudit: resource budget exceeded: {e}", file=sys.stderr)
        return EX_RESOURCE
    except PrecisionError as e:
        hint = ""
        if e.suggested_precision_bits:
            hint = f" (retry with --precision {e.suggested_precision_bits})"
        print(f"robinaudit: could not certify: {e}{hint}", file=sys.stderr)
        return EX_INCONCLUSIVE
    except DomainError as e:
        print(f"robinaudit: invalid input: {e}", file=sys.stderr)
        return EX_USAGE
    except Exception:
        # InvariantError or any other bug.  Left uncaught, Python would
        # exit with 1, which reads as "excluded".
        traceback.print_exc(file=sys.stderr)
        print("robinaudit: internal error (this is a bug, not a verdict)",
              file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
