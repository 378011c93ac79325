"""Necessary-condition audit for least-counterexample candidates.

Every check returns a certified verdict: Pass and Fail are backed by
disjoint enclosures or exact integer comparisons, Unknown means the
comparison stayed indeterminate at the working precision, NotApplicable
means the condition's preconditions are unmet.  A candidate is excluded
the moment any single check certifies Fail.

Per-index window checks run in O(#runs): inside a run the exponent is
constant while the bounds U and L are monotone in the prime, so only run
endpoints need testing and violations sit at a known end of the run.
"""

from __future__ import annotations

import bisect
import functools
import json
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (
    DomainError,
    InvariantError,
    PrecisionError,
)
from .factored import (
    CandidateFactorization,
    _Products,
    _require_table,
    g_ratio_divide,
    g_ratio_swap,
    is_sum_of_two_squares,
    log_n,
    n_over_phi,
    rho,
)
from .intervals import (
    _EXACT_POW_BITS,
    _MAX_ESCALATIONS,
    DEFAULT_PRECISION_BITS,
    Comparison,
    IntervalScalar,
    _pow_bits,
    constants,
    escalate,
    interval_to_json,
    iv_add,
    iv_compare,
    iv_div,
    iv_dyadic,
    iv_exp,
    iv_floor,
    iv_from_int,
    iv_log,
    iv_mul,
    iv_neg,
    iv_round,
    iv_sqrt,
    iv_sub,
    power_below,
)
from .primes import PrimeTable

CHECK_IDS = (
    "size_floor_C",
    "log_window_1",
    "log_window_2",
    "upper_window_3",
    "lower_window_4",
    "shape_B1",
    "shape_B2",
    "shape_B3",
    "shape_B4",
    "shape_B5",
    "density_B6",
    "vojak_D1",
    "vojak_D2",
    "vojak_D3",
    "vojak_D4",
    "exponents_E",
    "two_squares_F",
    "s_window_56",
)

# Strict lower bounds on the first five exponents of the least counterexample.
EXPONENT_FLOORS = ((1, 19), (2, 12), (3, 7), (4, 6), (5, 5))

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"
NOT_APPLICABLE = "not_applicable"

_B2_PAIR_LIMIT = 512


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: dict
    precision_used: int

    def to_json(self) -> dict:
        """Interval witnesses are kept as enclosures and written here,
        rounded outward to ``precision_used``."""
        prec = self.precision_used
        witness = {
            key: _interval_json(v, prec) if isinstance(v, IntervalScalar) else v
            for key, v in self.witness.items()
        }
        return {
            "status": self.status,
            "witness": witness,
            "precision_used": prec,
        }


class _Indeterminate(Exception):
    """Internal: a certified decision needs more precision."""


def _interval_json(v: IntervalScalar, prec: int) -> dict:
    return interval_to_json(iv_round(v, prec))


def int_log_floor(x: int, p: int) -> int:
    """Largest m >= 0 with p^m <= x, exact."""
    if x < 1 or p < 2:
        raise DomainError(f"int_log_floor needs x >= 1 and p >= 2, got {x}, {p}")
    m = 0
    v = p
    while v <= x:
        v *= p
        m += 1
    return m


def compute_l(p_r: int, p: int) -> int:
    """L(p) = floor(log p_r / log p), exact integer arithmetic."""
    if p < 2 or p_r < 2:
        raise DomainError(f"compute_l needs primes >= 2, got p_r={p_r}, p={p}")
    return int_log_floor(p_r, p)


def _upper_bound(lg: IntervalScalar, p: int) -> int:
    """U(p) = floor(log(k log n) / log p), where k is the bracket index
    with x_{k+1} < p <= x_k and x_k = (k log n)^(1/k).

    p <= x_k is p^k <= k log n.  The x_k decrease for log n > 2, so the
    bracket is the largest k with p^k <= k log n, and then
    p^k <= k log n < (k + 1) log n < p^(k+1) makes k the floor as well.
    k is found by walking upward, comparing the exact p^(k+1) with
    (k + 1) times each endpoint m 2^e of the enclosure of log n in exact
    integers; raises _Indeterminate when p^(k+1) lies between the two."""
    if iv_compare(lg, 2) is not Comparison.CERTAINLY_GREATER:
        raise DomainError("upper window bounds need log n certainly > 2")
    if iv_compare(p, lg) is not Comparison.CERTAINLY_LESS:
        raise DomainError(f"bracket undefined: {p} not certainly below log n")
    (lo_m, lo_s), (hi_m, hi_s) = iv_dyadic(lg)
    power = p
    for k in range(1, 200):
        power *= p
        if power << hi_s > (k + 1) * hi_m:
            return k
        if power << lo_s >= (k + 1) * lo_m:
            raise _Indeterminate(f"{p}^{k + 1} vs {k + 1} log n indeterminate")
    raise InvariantError(f"bracket walk for {p} did not terminate")


def compute_u_from_log(lg: IntervalScalar, p: int,
                       prec: int = DEFAULT_PRECISION_BITS) -> int:
    """U(p) for a given enclosure of log n (single precision, no retry)."""
    try:
        return _upper_bound(lg, p)
    except _Indeterminate as e:
        raise PrecisionError(str(e), suggested_precision_bits=prec * 2) from e


def compute_u(c: CandidateFactorization, i: int, t: PrimeTable,
              prec: int = DEFAULT_PRECISION_BITS) -> int:
    """U(p_i) for the candidate, retrying at doubled precision when a
    power comparison stays indeterminate."""
    p = t.nth_prime(i)
    products = _Products()

    def attempt(work: int) -> Optional[int]:
        lg = log_n(c, t, work, products=products)
        cmp = iv_compare(p, lg)
        if cmp is Comparison.CERTAINLY_GREATER:
            raise DomainError(f"U undefined at p_{i}={p}: log n is below it")
        if cmp is Comparison.OVERLAPPING:
            return None
        try:
            return _upper_bound(lg, p)
        except _Indeterminate:
            return None

    u = escalate(attempt, prec)
    if u is None:
        raise PrecisionError(
            f"U(p_{i}) indeterminate up to {prec << _MAX_ESCALATIONS} bits",
            suggested_precision_bits=prec << (_MAX_ESCALATIONS + 1),
        )
    return u


def compute_m(k: int, t: PrimeTable,
              prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """M(k) = exp(e^(-gamma) f(N_k)) - log N_k for the k-th primorial N_k,
    with f(N_k) = prod_{i<=k} p_i/(p_i - 1); memoized on the table."""
    if k < 1:
        raise DomainError(f"compute_m needs k >= 1, got {k}")

    def fresh() -> IntervalScalar:
        primorial = CandidateFactorization.from_runs([(1, k)])
        products = _Products()
        f = n_over_phi(primorial, t, prec, products=products)
        lg = log_n(primorial, t, prec, products=products)
        inner = iv_mul(constants(prec).exp_neg_gamma, f, prec)
        return iv_sub(iv_exp(inner, prec), lg, prec)

    return t._memoized(("m", k, prec), fresh)


class _AuditContext:
    """Shared lazily-computed quantities for one audit run: log n, rho,
    n/phi and log p_r.  ``products`` holds the exact cell products behind
    them."""

    def __init__(self, c: CandidateFactorization, t: PrimeTable, prec: int):
        self.c = c
        self.t = t
        self.prec = prec
        self.products = _Products()
        self.r = c.r
        self.covered = self.r <= len(t)
        self.p_r = t.nth_prime(self.r) if self.covered else None

    @functools.cached_property
    def log_n(self) -> IntervalScalar:
        return log_n(self.c, self.t, self.prec, products=self.products)

    @functools.cached_property
    def rho(self) -> IntervalScalar:
        return rho(self.c, self.t, self.prec, products=self.products)

    @functools.cached_property
    def nphi(self) -> IntervalScalar:
        return n_over_phi(self.c, self.t, self.prec, products=self.products)

    @functools.cached_property
    def log_p_r(self) -> IntervalScalar:
        return iv_log(iv_from_int(self.p_r), self.prec)

    def uncovered(self) -> Verdict:
        return Verdict(
            UNKNOWN,
            {
                "reason": "prime table does not cover the candidate",
                "needed_index": self.r,
                "table_primes": len(self.t),
            },
            self.prec,
        )


def _needs_table(check: Callable[..., Verdict]) -> Callable[..., Verdict]:
    """Checks that read the candidate's primes report Unknown, not an
    error, when the prime table does not cover the candidate."""
    @functools.wraps(check)
    def guarded(ctx: _AuditContext, *args) -> Verdict:
        if not ctx.covered:
            return ctx.uncovered()
        return check(ctx, *args)
    return guarded


def _decide(pairs: list[tuple[Comparison, Comparison]], witness: dict,
            prec: int) -> Verdict:
    """Verdict from (comparison, side that passes) pairs: Pass when every
    comparison is on its passing side, Fail when any is certainly on the
    other side, Unknown otherwise."""
    if all(cmp is side for cmp, side in pairs):
        return Verdict(PASS, witness, prec)
    if any(cmp is not side and cmp is not Comparison.OVERLAPPING
           for cmp, side in pairs):
        return Verdict(FAIL, witness, prec)
    return Verdict(UNKNOWN, witness, prec)


@_needs_table
def _check_size_floor(ctx: _AuditContext) -> Verdict:
    prec = ctx.prec
    cst = constants(prec)
    log10_n = iv_div(ctx.log_n, cst.ln10, prec)
    if iv_compare(log10_n, 1) is not Comparison.CERTAINLY_GREATER:
        # n <= 10^10 is certainly below any double-exponential floor
        return Verdict(
            FAIL,
            {"log_n": ctx.log_n,
             "bound_log10_log10": str(cst.size_floor_log10_log10)},
            prec,
        )
    val = iv_div(iv_log(log10_n, prec), cst.ln10, prec)
    cmp = iv_compare(val, cst.size_floor_log10_log10_iv)
    witness = {
        "log10_log10_n": val,
        "bound_log10_log10": str(cst.size_floor_log10_log10),
    }
    return _decide([(cmp, Comparison.CERTAINLY_GREATER)], witness, prec)


@_needs_table
def _check_log_window_1(ctx: _AuditContext) -> Verdict:
    prec = ctx.prec
    cmp = iv_compare(ctx.log_n, ctx.p_r)
    witness = {"log_n": ctx.log_n, "p_r": ctx.p_r}
    return _decide([(cmp, Comparison.CERTAINLY_GREATER)], witness, prec)


@_needs_table
def _check_log_window_2(ctx: _AuditContext) -> Verdict:
    prec = ctx.prec
    slack = constants(prec).log_window_slack_iv
    bound = iv_mul(
        iv_from_int(ctx.p_r),
        iv_add(iv_from_int(1), iv_div(slack, ctx.log_p_r, prec), prec),
        prec,
    )
    cmp = iv_compare(ctx.log_n, bound)
    witness = {
        "log_n": ctx.log_n,
        "upper_bound": bound,
        "p_r": ctx.p_r,
    }
    return _decide([(cmp, Comparison.CERTAINLY_LESS)], witness, prec)


@_needs_table
def _check_log_window_alt(ctx: _AuditContext) -> Verdict:
    prec = ctx.prec
    lg = ctx.log_n
    if iv_compare(lg, 1) is not Comparison.CERTAINLY_GREATER:
        return Verdict(
            NOT_APPLICABLE,
            {"reason": "log log n undefined", "log_n": lg},
            prec,
        )
    slack = constants(prec).log_window_slack_alt_iv
    factor = iv_sub(iv_from_int(1), iv_div(slack, iv_log(lg, prec), prec), prec)
    bound = iv_mul(lg, factor, prec)
    cmp = iv_compare(ctx.p_r, bound)
    witness = {"p_r": ctx.p_r, "lower_bound": bound}
    return _decide([(cmp, Comparison.CERTAINLY_GREATER)], witness, prec)


def check_log_window_alt(c: CandidateFactorization, t: PrimeTable,
                         prec: int = DEFAULT_PRECISION_BITS) -> Verdict:
    """Alternative one-sided window: p_r > (log n)(1 - c'/log log n).

    Informational companion to log_window_2; not part of the audit ledger.
    """
    return _check_log_window_alt(_AuditContext(c, t, prec))


@_needs_table
def _check_upper_window(ctx: _AuditContext) -> Verdict:
    prec = ctx.prec
    cmp = iv_compare(ctx.log_n, ctx.p_r)
    if cmp is Comparison.CERTAINLY_LESS:
        return Verdict(
            NOT_APPLICABLE,
            {"reason": "log n is below p_r; U is undefined at the top prime",
             "log_n": ctx.log_n, "p_r": ctx.p_r},
            prec,
        )
    if cmp is Comparison.OVERLAPPING:
        return Verdict(
            UNKNOWN,
            {"reason": "log n vs p_r indeterminate",
             "log_n": ctx.log_n, "p_r": ctx.p_r},
            prec,
        )

    @functools.cache
    def u(i: int) -> int:
        return _upper_bound(ctx.log_n, ctx.t.nth_prime(i))

    try:
        runs_checked = 0
        for start, end, e in ctx.c.run_bounds():
            if e == 0:
                continue
            runs_checked += 1
            if e <= u(end):
                continue
            # violations form a suffix of the run; locate the first one
            first = start + bisect.bisect_left(range(start, end), True,
                                               key=lambda i: e > u(i))
            return Verdict(
                FAIL,
                {"index": first, "prime": ctx.t.nth_prime(first),
                 "exponent": e, "upper_bound": u(first)},
                prec,
            )
        return Verdict(PASS, {"runs_checked": runs_checked}, prec)
    except _Indeterminate as e:
        return Verdict(
            UNKNOWN,
            {"reason": str(e), "suggested_precision_bits": prec * 2},
            prec,
        )


def _lower_violation(ctx: _AuditContext, first_index: int) -> Optional[tuple[int, int, int]]:
    """First index >= first_index with a_i < L(p_i), else None.  Exact."""
    for start, end, e in ctx.c.run_bounds():
        if end < first_index:
            continue
        probe = max(start, first_index)
        l_probe = compute_l(ctx.p_r, ctx.t.nth_prime(probe))
        if e >= l_probe:
            continue  # L only shrinks along the run
        return probe, ctx.t.nth_prime(probe), l_probe
    return None


@_needs_table
def _check_lower_window(ctx: _AuditContext, first_index: int) -> Verdict:
    prec = ctx.prec
    if ctx.r < 2:
        return Verdict(
            NOT_APPLICABLE,
            {"reason": "needs at least two prime factors", "r": ctx.r},
            prec,
        )
    hit = _lower_violation(ctx, first_index)
    if hit is None:
        return Verdict(PASS, {"first_index": first_index, "p_r": ctx.p_r}, prec)
    i, p, l_val = hit
    return Verdict(
        FAIL,
        {"index": i, "prime": p, "exponent": ctx.c.a(i), "lower_bound": l_val},
        prec,
    )


def _check_shape_b1(ctx: _AuditContext) -> Verdict:
    c = ctx.c
    if c.canonical:
        return Verdict(PASS, {"canonical": True}, ctx.prec)
    prev_end, prev_e = 0, None
    for start, end, e in c.run_bounds():
        if prev_e is not None and e > prev_e:
            return Verdict(
                FAIL,
                {"index_i": prev_end, "index_j": start,
                 "exponent_i": prev_e, "exponent_j": e},
                ctx.prec,
            )
        prev_end, prev_e = end, e
    return Verdict(PASS, {"canonical": False, "non_increasing": True}, ctx.prec)


def _b2_pred(ctx: _AuditContext, i: int, j: int) -> int:
    """floor(a_i log p_i / log p_j) = largest m with p_j^m <= p_i^(a_i)."""
    p_i = ctx.t.nth_prime(i)
    p_j = ctx.t.nth_prime(j)
    a_i = ctx.c.a(i)
    if _pow_bits(p_i, a_i) <= _EXACT_POW_BITS:
        return int_log_floor(p_i**a_i, p_j)

    # interval route for astronomically large exponents
    def attempt(prec: int) -> Optional[int]:
        return iv_floor(iv_div(
            iv_mul(iv_from_int(a_i), iv_log(iv_from_int(p_i), prec), prec),
            iv_log(iv_from_int(p_j), prec),
            prec,
        ))

    m = escalate(attempt, ctx.prec)
    if m is None:
        raise _Indeterminate(f"floor(a_{i} log p_{i} / log p_{j}) straddles an integer")
    return m


@_needs_table
def _check_shape_b2(ctx: _AuditContext) -> Verdict:
    c, prec = ctx.c, ctx.prec

    def bad(i: int, j: int) -> Optional[dict]:
        pred = _b2_pred(ctx, i, j)
        if abs(c.a(j) - pred) > 1:
            return {
                "index_i": i, "index_j": j, "exponent_j": c.a(j),
                "predicted": pred,
            }
        return None

    bounds = list(c.run_bounds())
    try:
        if c.canonical:
            # the floor grows with p_i and shrinks with p_j, so over a pair
            # of runs it is extremal at two corners; within one run only the
            # low side can violate
            pairs = 0
            for bi, (s_i, t_i, _e_i) in enumerate(bounds):
                for s_j, t_j, _e_j in bounds[bi:]:
                    if s_i == s_j:
                        corners = [(s_i, t_i)] if t_i > s_i else []
                    else:
                        corners = [(t_i, s_j), (s_i, t_j)]
                    pairs += len(corners)
                    for i, j in corners:
                        w = bad(i, j)
                        if w:
                            return Verdict(FAIL, w, prec)
            return Verdict(PASS, {"corner_pairs_checked": pairs}, prec)
        if c.r > _B2_PAIR_LIMIT:
            return Verdict(
                UNKNOWN,
                {"reason": "non-canonical candidate too wide for the "
                           "all-pairs cross-check", "r": c.r},
                prec,
            )
        for i in range(1, c.r + 1):
            if c.a(i) == 0:
                continue
            for j in range(i + 1, c.r + 1):
                if c.a(j) == 0:
                    continue
                w = bad(i, j)
                if w:
                    return Verdict(FAIL, w, prec)
        return Verdict(PASS, {"pairs": c.r * (c.r - 1) // 2}, prec)
    except _Indeterminate as e:
        return Verdict(UNKNOWN, {"reason": str(e)}, prec)


def _check_shape_b3(ctx: _AuditContext) -> Verdict:
    c = ctx.c
    a_r = c.runs[-1].exponent
    if a_r == 1:
        return Verdict(PASS, {"last_exponent": 1}, ctx.prec)
    # the two known exceptions to a_r = 1: n = 4 and n = 36
    if c.runs in (((2, 1),), ((2, 2),)):
        return Verdict(PASS, {"last_exponent": a_r, "exception": True}, ctx.prec)
    return Verdict(FAIL, {"last_exponent": a_r, "index": c.r}, ctx.prec)


@_needs_table
def _check_shape_b4(ctx: _AuditContext) -> Verdict:
    c, t, prec = ctx.c, ctx.t, ctx.prec
    if c.r < 2:
        return Verdict(PASS, {"reason": "no index above 1"}, prec)
    a1 = c.a(1)
    try:
        for start, end, e in c.run_bounds():
            if e == 0 or end < 2:
                continue
            p = t.nth_prime(end)
            # p^e < 2^(a1+2), worst within the run at its top prime
            if not _power_below(ctx, p, e, 2, a1 + 2):
                # violations form a suffix of the run; locate the first one
                lo = max(start, 2)
                idx = lo + bisect.bisect_left(
                    range(lo, end), True,
                    key=lambda i: not _power_below(ctx, t.nth_prime(i), e, 2,
                                                   a1 + 2))
                return Verdict(
                    FAIL,
                    {"index": idx, "prime": t.nth_prime(idx),
                     "exponent": e, "bound_exponent": a1 + 2},
                    prec,
                )
        return Verdict(PASS, {"bound_exponent": a1 + 2}, prec)
    except _Indeterminate as e:
        return Verdict(UNKNOWN, {"reason": str(e)}, prec)


def _power_below(ctx: _AuditContext, p: int, e: int, q: int, f: int) -> bool:
    """Certified p^e < q^f; raises _Indeterminate when undecidable."""
    below = power_below(p, e, q, f, ctx.prec)
    if below is None:
        raise _Indeterminate(f"{p}^{e} vs {q}^{f} indeterminate")
    return below


@_needs_table
def _check_density_b6(ctx: _AuditContext) -> Verdict:
    prec = ctx.prec
    lp = ctx.log_p_r
    inv = iv_div(iv_from_int(1), lp, prec)
    eps = iv_mul(
        inv,
        iv_add(iv_from_int(1),
               iv_div(constants(prec).three_halves, lp, prec), prec),
        prec,
    )
    bound = iv_mul(iv_sub(iv_from_int(1), eps, prec), ctx.nphi, prec)
    cmp = iv_compare(ctx.rho, bound)
    witness = {
        "rho": ctx.rho,
        "bound": bound,
        "epsilon_p_r": eps,
    }
    return _decide([(cmp, Comparison.CERTAINLY_GREATER)], witness, prec)


def _check_vojak_d1(ctx: _AuditContext) -> Verdict:
    floor = constants(ctx.prec).min_prime_count
    omega = ctx.c.omega
    status = PASS if omega > floor else FAIL
    return Verdict(status, {"prime_factors": omega, "floor": floor}, ctx.prec)


def _check_vojak_d2(ctx: _AuditContext) -> Verdict:
    c = ctx.c
    r = c.r
    count = sum(run.count for run in c.runs if run.exponent != 1)
    status = PASS if 14 * count < r else FAIL
    return Verdict(
        status, {"count_exponent_not_one": count, "r": r}, ctx.prec
    )


@_needs_table
def _check_vojak_d3(ctx: _AuditContext) -> Verdict:
    prec = ctx.prec
    lower = iv_exp(iv_neg(iv_div(iv_from_int(1), ctx.log_p_r, prec)), prec)
    mid = iv_div(iv_from_int(ctx.p_r), ctx.log_n, prec)
    c1 = iv_compare(lower, mid)
    c2 = iv_compare(mid, 1)
    witness = {
        "ratio": mid,
        "lower": lower,
    }
    return _decide([(c1, Comparison.CERTAINLY_LESS),
                    (c2, Comparison.CERTAINLY_LESS)], witness, prec)


@_needs_table
def _check_vojak_d4(ctx: _AuditContext) -> Verdict:
    c, t, prec = ctx.c, ctx.t, ctx.prec
    if c.r < 2:
        return Verdict(PASS, {"reason": "no index above 1"}, prec)
    a1 = c.a(1)
    m_r = compute_m(c.r, t, prec)
    try:
        for start, end, e in c.run_bounds():
            if e == 0 or end < 2:
                continue
            p = t.nth_prime(end)
            ok1 = _power_below(ctx, p, e, 2, a1 + 2)
            # p^e < p e^M(r)  <=>  (e-1) log p < M(r)
            lhs = iv_mul(iv_from_int(e - 1), iv_log(iv_from_int(p), prec), prec)
            cmp2 = iv_compare(lhs, m_r)
            if cmp2 is Comparison.OVERLAPPING:
                raise _Indeterminate(f"(a-1) log p vs M(r) at index {end}")
            ok2 = cmp2 is Comparison.CERTAINLY_LESS
            if not (ok1 and ok2):
                return Verdict(
                    FAIL,
                    {"index": end, "prime": p, "exponent": e,
                     "below_power_bound": ok1, "below_m_bound": ok2,
                     "m_r": m_r},
                    prec,
                )
        return Verdict(PASS, {"m_r": m_r}, prec)
    except _Indeterminate as e:
        return Verdict(UNKNOWN, {"reason": str(e), "m_r": m_r}, prec)


def _check_exponents_e(ctx: _AuditContext) -> Verdict:
    c = ctx.c
    for i, floor in EXPONENT_FLOORS:
        if c.a(i) <= floor:
            return Verdict(
                FAIL,
                {"index": i, "exponent": c.a(i), "strict_floor": floor},
                ctx.prec,
            )
    return Verdict(PASS, {"floors": [f for _, f in EXPONENT_FLOORS]}, ctx.prec)


@_needs_table
def _check_two_squares(ctx: _AuditContext) -> Verdict:
    representable = is_sum_of_two_squares(ctx.c, ctx.t)
    # a least counterexample cannot be a sum of two squares
    status = FAIL if representable else PASS
    return Verdict(status, {"sum_of_two_squares": representable}, ctx.prec)


@_needs_table
def _check_s_window(ctx: _AuditContext) -> Verdict:
    prec = ctx.prec
    s = ctx.c.s_index()
    if s is None or s >= ctx.r:
        return Verdict(
            NOT_APPLICABLE,
            {"reason": "no index s < r with exponent >= 2",
             "s": s, "r": ctx.r},
            prec,
        )
    p_s = ctx.t.nth_prime(s)
    root = iv_sqrt(iv_from_int(ctx.p_r), prec)
    cst = constants(prec)
    lower = iv_mul(cst.s_window_lower_iv, root, prec)
    upper = iv_mul(cst.s_window_upper_iv, root, prec)
    c1 = iv_compare(p_s, lower)
    c2 = iv_compare(p_s, upper)
    witness = {
        "s": s, "p_s": p_s, "p_r": ctx.p_r,
        "lower": lower, "upper": upper,
    }
    return _decide([(c1, Comparison.CERTAINLY_GREATER),
                    (c2, Comparison.CERTAINLY_LESS)], witness, prec)


_CHECK_FUNCS: dict[str, Callable[[_AuditContext], Verdict]] = {
    "size_floor_C": _check_size_floor,
    "log_window_1": _check_log_window_1,
    "log_window_2": _check_log_window_2,
    "upper_window_3": _check_upper_window,
    "lower_window_4": lambda ctx: _check_lower_window(ctx, 1),
    "shape_B1": _check_shape_b1,
    "shape_B2": _check_shape_b2,
    "shape_B3": _check_shape_b3,
    "shape_B4": _check_shape_b4,
    "shape_B5": lambda ctx: _check_lower_window(ctx, 2),
    "density_B6": _check_density_b6,
    "vojak_D1": _check_vojak_d1,
    "vojak_D2": _check_vojak_d2,
    "vojak_D3": _check_vojak_d3,
    "vojak_D4": _check_vojak_d4,
    "exponents_E": _check_exponents_e,
    "two_squares_F": _check_two_squares,
    "s_window_56": _check_s_window,
}

SURVIVES = "survives_all_checks"
EXCLUDED = "excluded"
INCONCLUSIVE = "inconclusive"


@dataclass
class AuditReport:
    candidate: CandidateFactorization
    precision_bits: int
    checks: list[tuple[str, Verdict]]
    extra_checks: list[tuple[str, Verdict]]

    @property
    def excluded_by(self) -> list[str]:
        return [cid for cid, v in self.checks if v.status == FAIL]

    @property
    def unknown_checks(self) -> list[str]:
        return [cid for cid, v in self.checks if v.status == UNKNOWN]

    @property
    def result(self) -> str:
        if self.excluded_by:
            return EXCLUDED
        if self.unknown_checks:
            return INCONCLUSIVE
        return SURVIVES

    def verdict_for(self, check_id: str) -> Verdict:
        for cid, v in self.checks:
            if cid == check_id:
                return v
        raise KeyError(check_id)

    def to_json(self) -> dict:
        out = {
            "candidate": self.candidate.to_json(),
            "precision_bits": self.precision_bits,
            "checks": [
                {"id": cid, **v.to_json()} for cid, v in self.checks
            ],
            "summary": {
                "result": self.result,
                "excluded_by": self.excluded_by,
                "unknown_checks": self.unknown_checks,
            },
        }
        if self.extra_checks:
            out["extra_checks"] = [
                {"id": cid, **v.to_json()} for cid, v in self.extra_checks
            ]
        return out


def run_check(check_id: str, c: CandidateFactorization, t: PrimeTable,
              prec: int = DEFAULT_PRECISION_BITS) -> Verdict:
    """Run a single check by id (mostly useful for tests and exploration)."""
    if check_id not in _CHECK_FUNCS:
        raise DomainError(f"unknown check id {check_id!r}")
    return _CHECK_FUNCS[check_id](_AuditContext(c, t, prec))


def full_audit(c: CandidateFactorization, t: PrimeTable,
               prec: int = DEFAULT_PRECISION_BITS,
               include_alt_log_window: bool = False) -> AuditReport:
    """Every necessary-condition check, in the fixed ledger order."""
    ctx = _AuditContext(c, t, prec)
    checks = [(cid, _CHECK_FUNCS[cid](ctx)) for cid in CHECK_IDS]
    extra = []
    if include_alt_log_window:
        extra.append(("log_window_alt", _check_log_window_alt(ctx)))
    return AuditReport(
        candidate=c, precision_bits=prec, checks=checks, extra_checks=extra
    )


IN_WINDOW = "in_window"
STEP_LIMIT = "step_limit"
BLOCKED_EXPONENT = "blocked_exponent"
BLOCKED_LOG_WINDOW = "blocked_log_window"
INDETERMINATE = "indeterminate"


@dataclass
class NormalizationResult:
    candidate: CandidateFactorization
    status: str
    trace: list[dict]

    @property
    def steps(self) -> int:
        return len(self.trace)

    def to_json(self) -> dict:
        return {
            "candidate": self.candidate.to_json(),
            "status": self.status,
            "trace": self.trace,
        }


def _largest_upper_violation(ctx: _AuditContext) -> Optional[int]:
    for start, end, e in reversed(list(ctx.c.run_bounds())):
        if e == 0:
            continue
        if e > _upper_bound(ctx.log_n, ctx.t.nth_prime(end)):
            return end  # violations are a suffix; the end is the largest
    return None


def _largest_lower_violation(ctx: _AuditContext) -> Optional[int]:
    for start, end, e in reversed(list(ctx.c.run_bounds())):
        l_start = compute_l(ctx.p_r, ctx.t.nth_prime(start))
        if e >= l_start:
            continue  # no violation anywhere in this run
        # violations are a prefix; walking down from end, find its last index
        return end - bisect.bisect_left(
            range(end, start, -1), True,
            key=lambda i: e < compute_l(ctx.p_r, ctx.t.nth_prime(i)))
    return None


def normalize(c: CandidateFactorization, t: PrimeTable,
              prec: int = DEFAULT_PRECISION_BITS,
              step_limit: int = 10000) -> NormalizationResult:
    """Drive a candidate into the exponent window L <= a_i <= U.

    Divide steps (a_s > U(p_s), removing one factor p_s) run first, scanning
    from the largest index; then swap steps (a_s < L(p_s), trading the top
    prime for one more factor of p_s, which needs a_r = 1).  Each step logs
    a certified enclosure of G(n)/G(n') and whether it is certainly < 1.
    """
    if step_limit < 1:
        raise DomainError(f"step limit must be >= 1, got {step_limit}")
    cur = c
    trace: list[dict] = []
    for _ in range(step_limit):
        _require_table(cur, t)
        ctx = _AuditContext(cur, t, prec)
        state = iv_compare(ctx.log_n, ctx.p_r)
        upper_ok = state is Comparison.CERTAINLY_GREATER
        if state is Comparison.OVERLAPPING:
            return NormalizationResult(cur, INDETERMINATE, trace)

        s_div: Optional[int] = None
        if upper_ok:
            try:
                s_div = _largest_upper_violation(ctx)
            except _Indeterminate:
                return NormalizationResult(cur, INDETERMINATE, trace)
        if s_div is not None:
            step = _apply_divide(ctx, s_div, prec)
            trace.append(step)
            cur = _divided(cur, s_div)
            continue

        s_swap = _largest_lower_violation(ctx)
        if s_swap is not None:
            if cur.a(ctx.r) != 1:
                return NormalizationResult(cur, BLOCKED_EXPONENT, trace)
            step = _apply_swap(ctx, s_swap, prec)
            trace.append(step)
            cur = _swapped(cur, s_swap)
            continue

        if upper_ok:
            return NormalizationResult(cur, IN_WINDOW, trace)
        return NormalizationResult(cur, BLOCKED_LOG_WINDOW, trace)
    return NormalizationResult(cur, STEP_LIMIT, trace)


def _ratio_entry(ratio: Optional[IntervalScalar], prec: int) -> dict:
    if ratio is None:
        return {"ratio": None, "ratio_certainly_below_one": None}
    below = iv_compare(ratio, 1) is Comparison.CERTAINLY_LESS
    return {
        "ratio": _interval_json(ratio, prec),
        "ratio_certainly_below_one": below,
    }


def _apply_divide(ctx: _AuditContext, s: int, prec: int) -> dict:
    try:
        ratio = g_ratio_divide(ctx.c, s, ctx.t, prec, lg=ctx.log_n)
    except DomainError:
        ratio = None
    return {
        "action": "divide",
        "index": s,
        "prime": ctx.t.nth_prime(s),
        **_ratio_entry(ratio, prec),
    }


def _apply_swap(ctx: _AuditContext, s: int, prec: int) -> dict:
    try:
        ratio = g_ratio_swap(ctx.c, s, ctx.t, prec, lg=ctx.log_n)
    except DomainError:
        ratio = None
    return {
        "action": "swap",
        "index": s,
        "prime": ctx.t.nth_prime(s),
        "removed_prime": ctx.p_r,
        **_ratio_entry(ratio, prec),
    }


def _edited(c: CandidateFactorization, s: int, delta: int,
            drop_top: bool) -> CandidateFactorization:
    """Add ``delta`` to a_s and, with ``drop_top``, remove position r, by
    splitting the run that holds s in O(#runs); ``_from_pieces`` merges
    and strips the result as ``from_exponents`` would."""
    top = c.r - 1 if drop_top else c.r
    pieces = []
    for start, end, e in c.run_bounds():
        end = min(end, top)
        if start <= s <= end:
            pieces += [(e, s - start), (e + delta, 1), (e, end - s)]
        else:
            pieces.append((e, end - start + 1))
    return CandidateFactorization._from_pieces(pieces)


def _divided(c: CandidateFactorization, s: int) -> CandidateFactorization:
    """n / p_s, for a_s >= 1."""
    a = c.a(s)
    if a < 1:
        raise DomainError(f"p_{s} does not divide the candidate")
    if a == 1 and s != c.r:
        raise InvariantError(f"divide at interior index {s} would leave a hole")
    return _edited(c, s, -1, drop_top=False)


def _swapped(c: CandidateFactorization, s: int) -> CandidateFactorization:
    """n * p_s with position r removed, for 1 <= s < r."""
    if not 1 <= s < c.r:
        raise DomainError(f"swap index must satisfy 1 <= s < r = {c.r}")
    return _edited(c, s, 1, drop_top=True)


def report_to_json_str(report: AuditReport) -> str:
    """Deterministic serialization (stable key order, no whitespace drift)."""
    return json.dumps(report.to_json(), sort_keys=True, indent=2)
