"""The three benchmark workloads: inputs from a seed, one closed-loop pass,
and output checks.

Each operation is one call (or, for the corpus, one candidate) into the
package.  Its ``key`` describes its input exactly, so a stored reference
made at the default seed applies to any run whose operation has the same
key, whatever the seed; every other operation is held to invariants that
need no reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

GAP_LO = 468991632  # the Dusart gap bound applies from here on
GAP_HI = 10**9
WIDE_R = 10**5
CANONICAL_HEAD = ((20, 1), (13, 1), (8, 1), (7, 1), (6, 1))

# Sizes: "full" is what the benchmark measures, "tiny" is for the self-test.
SIZES = {
    "full": {
        "verify": (5041, 10**7), "window_near": 10**10, "window_width": 1 << 20,
        "sa_limit": 10**6, "gaps": 300,
        "wide_r": WIDE_R, "normalize_ones": 5000, "wide_table": 1_300_000,
        "ca_count": 20, "candidates": 1500, "corpus_table": 10**6,
    },
    "tiny": {
        "verify": (5041, 60000), "window_near": 10**6, "window_width": 1 << 12,
        "sa_limit": 10**4, "gaps": 5,
        "wide_r": 2000, "normalize_ones": 300, "wide_table": 20000,
        "ca_count": 5, "candidates": 30, "corpus_table": 10**5,
    },
}


@dataclass
class Op:
    kind: str
    key: str
    start: float = 0.0
    seconds: float = 0.0
    scale: float = 1.0  # reference seconds per measured second (speed.py)
    summary: Any = None
    error: Optional[str] = None
    problems: list = field(default_factory=list)
    verdicts: int = 0
    unknowns: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def timed(op: Op, fn: Callable[[], Any]) -> Op:
    """Run one operation; an exception is recorded as a failed operation."""
    t0 = op.start = time.perf_counter()
    try:
        op.summary = fn()
    except Exception as e:  # the benchmark must count failures, not stop
        op.error = f"{type(e).__name__}: {e}"
    op.seconds = time.perf_counter() - t0
    return op


# one letter per check status, in ledger order
_STATUS_LETTER = {"pass": "p", "fail": "f", "unknown": "u", "not_applicable": "n"}


def _letters(statuses) -> str:
    return "".join(_STATUS_LETTER[s] for s in statuses)


def _audit_summary(report) -> dict:
    return {
        "result": report.result,
        "excluded_by": report.excluded_by,
        "unknown": report.unknown_checks,
        "statuses": _letters(v.status for _, v in report.checks),
    }


def _normalize_summary(res) -> dict:
    return {"status": res.status, "steps": res.steps,
            "final": res.candidate.to_json()}


# ---------------------------------------------------------------------------
# range_sweep: sigma sieve, record scan and gap windows


def range_inputs(seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    near, width = size["window_near"], size["window_width"]
    w_lo = near + rng.randrange(-4 * width, 4 * width)
    return {
        "verify": [size["verify"], (w_lo, w_lo + width - 1)],
        "sa_limit": size["sa_limit"],
        "gaps": [rng.randrange(GAP_LO, GAP_HI + 1) for _ in range(size["gaps"])],
    }


def range_pass(ra, table, inp: dict, run_op: Callable = timed) -> list[Op]:
    ops = []
    for lo, hi in inp["verify"]:
        def verify(lo=lo, hi=hi):
            res = ra.verify_range(lo, hi)
            return {"checked": res.checked,
                    "violations": [r.n for r in res.violations],
                    "unknowns": [r.n for r in res.unknowns]}
        ops.append(run_op(Op("verify", f"verify:{lo}-{hi}"), verify))
    limit = inp["sa_limit"]
    ops.append(run_op(Op("sa", f"sa:{limit}"), lambda: [
        [r.n, r.sigma] for r in ra.superabundant_up_to(limit)]))
    for x in inp["gaps"]:
        ops.append(run_op(Op("gap", f"gap:{x}"), lambda x=x: ra.dusart_gap_holds(x)))
    return ops


def range_check(op: Op, refs: dict) -> None:
    s = op.summary
    if op.kind == "verify":
        lo, hi = map(int, op.key.split(":")[1].split("-"))
        op.verdicts, op.unknowns = s["checked"], len(s["unknowns"])
        if s["checked"] != hi - lo + 1:
            op.problems.append(f"checked {s['checked']} of {hi - lo + 1}")
        if s["violations"] or s["unknowns"]:
            op.problems.append(f"violations {s['violations'][:5]} unknowns {s['unknowns'][:5]}")
    elif op.kind == "sa":
        op.verdicts = 1
        limit = int(op.key.split(":")[1])
        full = refs.get("sa:1000000")
        if full is not None and limit <= 10**6:
            expect = [rec for rec in full if rec[0] <= limit]
            if s != expect:
                op.problems.append("record list differs from the reference")
    elif op.kind == "gap":
        op.verdicts = 1
        if s is not True:
            op.unknowns = 1
            op.problems.append("no prime found in the certified window")


def range_details(ops: list[Op]) -> dict:
    def rate(kind, work):
        sel = [o for o in ops if o.kind == kind]
        return sum(work(o) for o in sel) / sum(o.seconds for o in sel)

    def verify_ints(o):
        lo, hi = map(int, o.key.split(":")[1].split("-"))
        return hi - lo + 1

    return {
        "verify_ints_per_s": (rate("verify", verify_ints), "1/s"),
        "sa_ints_per_s": (rate("sa", lambda o: int(o.key.split(":")[1])), "1/s"),
        "gap_windows_per_s": (rate("gap", lambda o: 1), "1/s"),
    }


# ---------------------------------------------------------------------------
# wide_audit: certified aggregates over ~10^5 primes, quadratic normalize


def wide_inputs(seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    r = size["wide_r"]
    canonical = list(CANONICAL_HEAD) + [(1, r - len(CANONICAL_HEAD))]
    # power form: strictly decreasing exponents 40..3 on a short head, then
    # a bulk run at exponent 2 (the exact-power branch of rho)
    head_exps = sorted(rng.sample(range(3, 41), 10), reverse=True)
    head = [(e, rng.randint(1, 4)) for e in head_exps]
    power = head + [(2, r - sum(c for _, c in head))]
    return {
        "audits": [("canonical", canonical), ("power", power)],
        "normalize": [3] + [1] * size["normalize_ones"],
    }


def wide_pass(ra, table, inp: dict, run_op: Callable = timed) -> list[Op]:
    ops = []
    for label, runs in inp["audits"]:
        c = ra.CandidateFactorization.from_runs(runs)
        ops.append(run_op(Op("audit", f"audit:{json.dumps(runs)}"),
                          lambda c=c: _audit_summary(ra.full_audit(c, table))))
    exps = inp["normalize"]
    c = ra.CandidateFactorization.from_exponents(exps)
    ops.append(run_op(Op("normalize", f"normalize:[{exps[0]}]+[1]*{len(exps) - 1}"),
                      lambda: _normalize_summary(ra.normalize(c, table))))
    return ops


def _audit_counts(op: Op, summary: dict) -> None:
    op.verdicts += len(summary["statuses"])
    op.unknowns += len(summary["unknown"])


def wide_check(op: Op, refs: dict) -> None:
    if op.kind == "audit":
        _audit_counts(op, op.summary)
    else:
        op.verdicts = 1
        op.unknowns = int(op.summary["status"] == "indeterminate")


def wide_details(ops: list[Op]) -> dict:
    audits = [o for o in ops if o.kind == "audit"]
    primes = sum(sum(c for _, c in json.loads(o.key[len("audit:"):])) for o in audits)
    return {
        "audit_primes_per_s": (primes / sum(o.seconds for o in audits), "1/s"),
        "normalize_s": (sum(o.seconds for o in ops if o.kind == "normalize"), "s"),
    }


# ---------------------------------------------------------------------------
# corpus: thousands of tiny candidates through audit, normalize and the CLI


def _factor_small(n: int) -> list[int]:
    exps, p = [], 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exps.append(e)
        p += 1
        while any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            p += 1
    return exps


def corpus_inputs(seed: int, size: dict, refs: dict) -> dict:
    """Perturbations of the stored CA vectors and of superabundant shapes."""
    rng = random.Random(seed)
    ca = refs["ca_sweep:20"]
    sa = [_factor_small(n) for n, _ in refs["sa:1000000"] if n > 2]
    bases = ca + sa + [[5, 3, 2, 1, 1, 1]]
    cands = []
    for k in range(size["candidates"]):
        e = list(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(e))
            e[i] = max(0, e[i] + rng.choice((-2, -1, 1, 2)))
        e += [1] * rng.randint(0, 3)
        while e and e[-1] == 0:
            e.pop()
        via_cli = k % 10 == 9
        recheck = not via_cli and rng.random() < 0.25
        cands.append((e or [1], via_cli, recheck))
    return {"ca_count": size["ca_count"], "candidates": cands}


def _cli(ra, argv: list[str]) -> tuple[int, Any]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ra.cli.main(argv)
    return code, json.loads(out.getvalue())


def corpus_pass(ra, table, inp: dict, run_op: Callable = timed) -> list[Op]:
    count = inp["ca_count"]
    ops = [run_op(Op("ca_sweep", f"ca_sweep:{count}"), lambda: [
        c.exponents_list() for c in ra.ca_sweep(count, table)])]
    for exps, via_cli, recheck in inp["candidates"]:
        text = json.dumps({"exponents": exps})
        if via_cli:
            def run(text=text):
                a_code, a_doc = _cli(ra, ["audit", text, "--precision", "128"])
                n_code, n_doc = _cli(ra, ["normalize", text, "--precision", "128"])
                return {"audit_exit": a_code, "result": a_doc["summary"]["result"],
                        "excluded_by": a_doc["summary"]["excluded_by"],
                        "unknown": a_doc["summary"]["unknown_checks"],
                        "statuses": _letters(ch["status"] for ch in a_doc["checks"]),
                        "normalize_exit": n_code, "status": n_doc["status"],
                        "steps": len(n_doc["trace"]), "final": n_doc["candidate"]}
            key = f"cli:{text}"
        else:
            def run(exps=exps, recheck=recheck):
                c = ra.CandidateFactorization.from_exponents(exps)
                out = _audit_summary(ra.full_audit(c, table, 128))
                out.update(_normalize_summary(ra.normalize(c, table, 128)))
                if recheck:
                    out["statuses_256"] = _letters(
                        v.status for _, v in ra.full_audit(c, table, 256).checks)
                return out
            key = f"lib{'+256' if recheck else ''}:{text}"
        ops.append(run_op(Op("candidate", key), run))
    return ops


_EXIT_AUDIT = {"survives_all_checks": 0, "excluded": 1, "inconclusive": 2}


def corpus_check(op: Op, refs: dict) -> None:
    s = op.summary
    if op.kind == "ca_sweep":
        op.verdicts = 1
        full = refs.get("ca_sweep:20")
        count = int(op.key.split(":")[1])
        if full is not None and count <= len(full) and s != full[:count]:
            op.problems.append("CA vectors differ from the reference")
        return
    _audit_counts(op, s)
    op.verdicts += 1
    op.unknowns += int(s["status"] == "indeterminate")
    if "statuses_256" in s:
        op.verdicts += len(s["statuses_256"])
        op.unknowns += s["statuses_256"].count("u")
        flipped = [i for i, (a, b) in enumerate(zip(s["statuses"], s["statuses_256"]))
                   if a in "pf" and a != b]
        if flipped:
            op.problems.append(f"verdicts changed at 256 bits for checks {flipped}")
    if "audit_exit" in s:
        if s["audit_exit"] != _EXIT_AUDIT.get(s["result"]):
            op.problems.append(f"audit exit {s['audit_exit']} for {s['result']}")
        expect = 0 if s["status"] == "in_window" else 2
        if s["normalize_exit"] != expect:
            op.problems.append(f"normalize exit {s['normalize_exit']} for {s['status']}")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def corpus_details(ops: list[Op]) -> dict:
    lat = [o.seconds * 1e3 for o in ops if o.kind == "candidate"]
    return {
        "candidates_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "op_p50_ms": (_percentile(lat, 0.50), "ms"),
        "op_p99_ms": (_percentile(lat, 0.99), "ms"),
        "ca_sweep_s": (sum(o.seconds for o in ops if o.kind == "ca_sweep"), "s"),
    }


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    table_limit: Callable[[dict], Optional[int]]
    inputs: Callable[[int, dict, dict], dict]
    run_pass: Callable
    check: Callable[[Op, dict], None]
    details: Callable[[list[Op]], dict]


WORKLOADS = {
    "range_sweep": Workload(
        "range_sweep", lambda size: None,
        lambda seed, size, refs: range_inputs(seed, size),
        range_pass, range_check, range_details),
    "wide_audit": Workload(
        "wide_audit", lambda size: size["wide_table"],
        lambda seed, size, refs: wide_inputs(seed, size),
        wide_pass, wide_check, wide_details),
    "corpus": Workload(
        "corpus", lambda size: size["corpus_table"],
        corpus_inputs, corpus_pass, corpus_check, corpus_details),
}


def typical(passes: list[list[Op]]) -> list[Op]:
    """Each operation of the pass at its median time over the run's
    passes, in reference seconds (measured seconds times ``scale``)."""
    out = []
    for column in zip(*passes):
        if len({o.key for o in column}) != 1:
            raise ValueError("passes of one run must repeat the same operations")
        out.append(replace(column[0], scale=1.0, seconds=statistics.median(
            o.seconds * o.scale for o in column)))
    return out


def check_pass(w: Workload, ops: list[Op], refs: dict) -> None:
    """Invariants for every operation, plus the stored reference where one
    exists for the operation's exact input."""
    for op in ops:
        if op.error is not None:
            continue
        try:
            w.check(op, refs)
        except Exception as e:  # a malformed output is a failed operation
            op.problems.append(f"check raised {type(e).__name__}: {e}")
        expect = refs.get(op.key)
        if expect is not None and op.summary != expect:
            op.problems.append("output differs from the stored reference")
