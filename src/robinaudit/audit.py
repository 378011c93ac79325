"""Necessary-condition audit for least-counterexample candidates.

Every check yields a certified verdict: Pass and Fail are backed by
disjoint enclosures or exact integer comparisons, Unknown means the
comparison stayed indeterminate at the working precision, NotApplicable
means the condition's preconditions are unmet.  A candidate is excluded
the moment any single check certifies Fail.

A check states only its own condition: it returns a status and a
witness, at the one precision it is given.  A comparison it cannot decide
raises PrecisionError, carrying the check's reason and witness, from
``iv_less`` or ``iv_floor`` (U's exact integer walk raises its own).  A
guard or early exit asks ``iv_certainly_less`` instead, which reads an
overlap as "not certain" and takes the safe branch.  One runner,
``_verdict``, owns the rest: a check that reads primes the table
does not cover is Unknown; a check that raises is run again on the
precision ladder (``escalate``), and is Unknown, with the ladder's
suggested precision, only when its top rung raises too.  A verdict carries
the precision that decided it.

Per-index windows (L <= a_i <= U, and B4's p_i^(a_i) < 2^(a_1+2)) are
decided in O(#runs) by two scans shared by the checks and ``normalize``:
inside a run the exponent is fixed while each bound is monotone in the
prime, so a run's violations form a suffix (U, B4; ``_violation``) or a
prefix (L; ``_below_l``, which reads the prefix end from one integer root).
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import (
    DomainError,
    InvariantError,
    PrecisionError,
    _int_text,
    _json_text,
)
from .factored import (
    CandidateFactorization,
    Run,
    _cell_pieces,
    _density_piece,
    _g_ratio_edit,
    _log_after,
    _loglog_from,
    _require_table,
    is_sum_of_two_squares,
    log_n,
    n_over_phi,
)
from .intervals import (
    _EXACT_POW_BITS,
    DEFAULT_PRECISION_BITS,
    IntervalLike,
    IntervalScalar,
    _pow_bits,
    constants,
    escalate,
    interval_to_json,
    iv_add,
    iv_certainly_less,
    iv_div,
    iv_dyadic,
    iv_exp,
    iv_floor,
    iv_from_int,
    iv_less,
    iv_log,
    iv_log_rational,
    iv_mul,
    iv_neg,
    iv_round,
    iv_sqrt,
    iv_sub,
)
from .primes import PrimeTable

# Strict lower bounds on the first five exponents of the least counterexample.
EXPONENT_FLOORS = ((1, 19), (2, 12), (3, 7), (4, 6), (5, 5))

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"
NOT_APPLICABLE = "not_applicable"


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


def _interval_json(v: IntervalScalar, prec: int) -> dict:
    return interval_to_json(iv_round(v, prec))


def compute_l(x: int, p: int) -> int:
    """The largest m with p^m <= x, exact; L(p) = floor(log p_r / log p)
    at x = p_r."""
    if x < 2 or p < 2:
        raise DomainError("compute_l needs x >= 2 and p >= 2, got "
                          f"x={_int_text(x)}, p={_int_text(p)}")
    m, v = 0, p
    while v <= x:
        v *= p
        m += 1
    return m


def _upper_bound(lg: IntervalScalar, p: int) -> int:
    """U(p) = floor(log(k log n) / log p), where k is the bracket index
    with x_{k+1} < p <= x_k and x_k = (k log n)^(1/k).

    p <= x_k is p^k <= k log n.  The x_k decrease for log n > 2, so the
    bracket is the largest k with p^k <= k log n, and then
    p^k <= k log n < (k + 1) log n < p^(k+1) makes k the floor as well.
    k is found by walking upward, comparing the exact p^(k+1) with
    (k + 1) times each endpoint m 2^e of the enclosure of log n in exact
    integers.  Raises PrecisionError when p^(k+1) lies between the two or
    p itself lies inside the enclosure; DomainError when p is certainly
    above log n."""
    if not iv_certainly_less(2, lg):
        raise DomainError("upper window bounds need log n certainly > 2")
    if not iv_less(p, lg, f"{p} vs log n indeterminate"):
        raise DomainError(f"bracket undefined: {p} not certainly below log n")
    (lo_m, lo_s), (hi_m, hi_s) = iv_dyadic(lg)
    power, k = p * p, 1
    while power << hi_s <= (k + 1) * hi_m:  # ends: p^(k+1) outgrows (k + 1) log n
        if power << lo_s >= (k + 1) * lo_m:
            raise PrecisionError(f"{p}^{k + 1} vs {k + 1} log n indeterminate")
        power, k = power * p, k + 1
    return k


def compute_u(c: CandidateFactorization, i: int, t: PrimeTable,
              prec: int = DEFAULT_PRECISION_BITS) -> int:
    """U(p_i) for the candidate, retrying at doubled precision when a
    power comparison stays indeterminate."""
    p = t.nth_prime(i)
    return escalate(lambda work: _upper_bound(log_n(c, t, work), p), prec)


def compute_m(k: int, t: PrimeTable,
              prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """M(k) = exp(e^(-gamma) f(N_k)) - log N_k for the k-th primorial N_k,
    with f(N_k) = prod_{i<=k} p_i/(p_i - 1); memoized on the table."""
    if k < 1:
        raise DomainError(f"compute_m needs k >= 1, got {_int_text(k)}")

    def fresh() -> IntervalScalar:
        primorial = CandidateFactorization.from_runs([(1, k)])
        f = n_over_phi(primorial, t, prec)
        lg = log_n(primorial, t, prec)
        inner = iv_mul(constants(prec).exp_neg_gamma, f, prec)
        return iv_sub(iv_exp(inner, prec), lg, prec)

    return t._memoized(("m", k, prec), fresh)


class _TopPrimeBounds(NamedTuple):
    """The enclosures of the audit that depend only on p_r and the
    precision."""

    # log_window_2: p_r (1 + c / log p_r)
    log_window_2_upper: IntervalScalar
    # density_B6: epsilon(p_r) = (1 / log p_r)(1 + (3/2) / log p_r)
    epsilon: IntervalScalar
    # vojak_D3: exp(-1 / log p_r)
    d3_lower: IntervalScalar
    # s_window_56: lower and upper constant times sqrt(p_r)
    s_lower: IntervalScalar
    s_upper: IntervalScalar


@functools.lru_cache(maxsize=1 << 10)
def _top_prime_bounds(p_r: int, prec: int) -> _TopPrimeBounds:
    """The bounds at top prime p_r and ``prec`` bits, formed once per pair
    while it stays among the 1024 most recently used."""
    cst = constants(prec)
    lp = iv_log_rational(p_r, prec)
    inv = iv_div(iv_from_int(1), lp, prec)
    root = iv_sqrt(iv_from_int(p_r), prec)
    return _TopPrimeBounds(
        log_window_2_upper=iv_mul(
            iv_from_int(p_r),
            iv_add(iv_from_int(1),
                   iv_div(cst.log_window_slack, lp, prec), prec),
            prec,
        ),
        epsilon=iv_mul(
            inv,
            iv_add(iv_from_int(1), iv_div(Fraction(3, 2), lp, prec), prec),
            prec,
        ),
        d3_lower=iv_exp(iv_neg(inv), prec),
        s_lower=iv_mul(cst.s_window_lower, root, prec),
        s_upper=iv_mul(cst.s_window_upper, root, prec),
    )


class _AuditContext:
    """Shared lazily-computed quantities for one audit or normalize state:
    log n (``lg`` when carried from the previous state), log log n, U(p_i)
    per index and the bounds at p_r, with r = c.r and p_r given when the
    caller has them.  It holds no cell product: the enclosures made from
    those live in the table's memo."""

    def __init__(self, c: CandidateFactorization, t: PrimeTable, prec: int,
                 lg: Optional[IntervalScalar] = None, r: Optional[int] = None,
                 p_r: Optional[int] = None):
        if lg is not None:
            self.log_n = lg  # over the cached_property, which has no setter
        self.c = c
        self.t = t
        self.prec = prec
        self.r = c.r if r is None else r
        self.covered = self.r <= len(t)
        self.p_r = p_r or (t.nth_prime(self.r) if self.covered else None)
        self._u: dict[int, int] = {}

    @functools.cached_property
    def log_n(self) -> IntervalScalar:
        return log_n(self.c, self.t, self.prec)

    @functools.cached_property
    def loglog(self) -> IntervalScalar:
        return _loglog_from(self.log_n, self.prec)

    @functools.cached_property
    def top(self) -> _TopPrimeBounds:
        return _top_prime_bounds(self.p_r, self.prec)

    def u(self, i: int) -> int:
        """U(p_i), formed once per index; raises PrecisionError."""
        u = self._u.get(i)
        if u is None:
            u = self._u[i] = _upper_bound(self.log_n, self.t.nth_prime(i))
        return u

    def above_u(self, i: int, e: int) -> bool:
        """a_i = e > U(p_i); U is not formed for e = 0."""
        return e > 0 and e > self.u(i)


def _violation(ctx: _AuditContext, bad: Callable[[int, int], bool], *,
               last: bool = False, lo: int = 1) -> Optional[int]:
    """Least index i >= lo with bad(i, a_i), or the largest when ``last``;
    None when there is none.

    ``bad`` holds on a suffix of each run, so each run is tested at its
    end, and bisected only for the least index."""
    runs = ctx.c.run_bounds()
    for start, end, e in reversed(list(runs)) if last else runs:
        start = max(start, lo)
        if start > end or not bad(end, e):
            continue
        if last:
            return end
        return start + bisect.bisect_left(range(start, end), True,
                                          key=lambda i: bad(i, e))
    return None


def _below_l(ctx: _AuditContext, *, last: bool = False,
             lo: int = 1) -> Optional[int]:
    """Least index i >= lo with a_i < L(p_i), or the largest when ``last``
    (which reads no lo); None when there is none.

    e < L(p) = floor(log p_r / log p) means p^(e+1) <= p_r, that is
    p <= floor(p_r^(1/(e+1))) for an integer p.  The primes rise with the
    index, so a run of exponent e holds a violation when its first prime
    does, and its violations end at the run end or at the last prime up to
    that root, found by one search of the table.  No prime does when
    e + 1 is at least the bit length of p_r, and no power is formed.  Both
    read one view of p_1..p_r; the largest walks down the runs from r."""
    p_r, bits, primes = ctx.p_r, ctx.p_r.bit_length(), ctx.t.slice(1, ctx.r)
    if not last:
        for start, end, e in ctx.c.run_bounds():
            start, k = max(start, lo), e + 1
            if start <= end and k < bits and int(primes[start - 1]) ** k <= p_r:
                return start
        return None
    end = ctx.r
    for e, count in reversed(ctx.c.runs):
        k = e + 1
        if k < bits and int(primes[end - count]) ** k <= p_r:  # p at the run start
            root = int(p_r ** (1 / k)) + 1  # float root + 1 >= the exact floor
            while root**k > p_r:
                root -= 1
            return int(primes[:end].searchsorted(root, side="right"))
        end -= count
    return None


def _decide(ctx: _AuditContext, witness: dict,
            *pairs: tuple[IntervalLike, IntervalLike]) -> tuple[str, dict]:
    """Pass, with ``witness``, when a < b certainly holds for every (a, b)
    pair, read in order; Fail at the first pair certainly the other way
    round.  A pair that overlaps raises PrecisionError carrying ``witness``."""
    # In each two-pair check (D3, the s-window) the first pair's bound lies
    # certainly below the second's, so one pair cannot overlap while the
    # other certainly fails: reading in order decides as reading all does.
    for a, b in pairs:
        if not iv_less(a, b, "comparison indeterminate", witness, ctx.prec):
            return FAIL, witness
    return PASS, witness


def _check_size_floor(ctx: _AuditContext) -> tuple[str, dict]:
    prec = ctx.prec
    cst = constants(prec)
    log10_n = iv_div(ctx.log_n, cst.ln10, prec)
    if not iv_certainly_less(1, log10_n):
        # log10 n is not certainly > 1: n is about 10 or less, far below
        # the double-exponential floor
        return FAIL, {"log_n": ctx.log_n,
                      "bound_log10_log10": str(cst.size_floor_log10_log10)}
    val = iv_div(iv_log(log10_n, prec), cst.ln10, prec)
    witness = {
        "log10_log10_n": val,
        "bound_log10_log10": str(cst.size_floor_log10_log10),
    }
    return _decide(ctx, witness, (cst.size_floor_log10_log10, val))


def _check_log_window_1(ctx: _AuditContext) -> tuple[str, dict]:
    witness = {"log_n": ctx.log_n, "p_r": ctx.p_r}
    return _decide(ctx, witness, (ctx.p_r, ctx.log_n))


def _check_log_window_2(ctx: _AuditContext) -> tuple[str, dict]:
    bound = ctx.top.log_window_2_upper
    witness = {
        "log_n": ctx.log_n,
        "upper_bound": bound,
        "p_r": ctx.p_r,
    }
    return _decide(ctx, witness, (ctx.log_n, bound))


def _check_log_window_alt(ctx: _AuditContext) -> tuple[str, dict]:
    """Alternative one-sided window: p_r > (log n)(1 - c'/log log n).

    Informational companion to log_window_2; not part of the audit ledger.
    """
    prec = ctx.prec
    lg = ctx.log_n
    if not iv_certainly_less(1, lg):
        return NOT_APPLICABLE, {"reason": "log log n undefined", "log_n": lg}
    slack = constants(prec).log_window_slack_alt
    factor = iv_sub(iv_from_int(1), iv_div(slack, ctx.loglog, prec), prec)
    bound = iv_mul(lg, factor, prec)
    witness = {"p_r": ctx.p_r, "lower_bound": bound}
    return _decide(ctx, witness, (bound, ctx.p_r))


def _log_n_above_p_r(ctx: _AuditContext) -> bool:
    """log n > p_r, which U at the top prime needs; PrecisionError when
    the two overlap."""
    return iv_less(ctx.p_r, ctx.log_n, "log n vs p_r indeterminate",
                   {"log_n": ctx.log_n, "p_r": ctx.p_r})


def _check_upper_window(ctx: _AuditContext) -> tuple[str, dict]:
    if not _log_n_above_p_r(ctx):
        return NOT_APPLICABLE, {
            "reason": "log n is below p_r; U is undefined at the top prime",
            "log_n": ctx.log_n, "p_r": ctx.p_r}
    i = _violation(ctx, ctx.above_u)
    if i is None:
        return PASS, {"runs_checked": sum(1 for run in ctx.c.runs
                                          if run.exponent)}
    return FAIL, {"index": i, "prime": ctx.t.nth_prime(i),
                  "exponent": ctx.c.a(i), "upper_bound": ctx.u(i)}


def _check_lower_window(ctx: _AuditContext, first_index: int) -> tuple[str, dict]:
    if ctx.r < 2:
        return NOT_APPLICABLE, {"reason": "needs at least two prime factors",
                                "r": ctx.r}
    i = _below_l(ctx, lo=first_index)
    if i is None:
        return PASS, {"first_index": first_index, "p_r": ctx.p_r}
    p = ctx.t.nth_prime(i)
    return FAIL, {"index": i, "prime": p, "exponent": ctx.c.a(i),
                  "lower_bound": compute_l(ctx.p_r, p)}


def _check_shape_b1(ctx: _AuditContext) -> tuple[str, dict]:
    """Exponents never rise.  Neighbouring runs differ and the last is
    positive, so a candidate without a rise is canonical."""
    prev_end, prev_e = 0, None
    for start, end, e in ctx.c.run_bounds():
        if prev_e is not None and e > prev_e:
            return FAIL, {"index_i": prev_end, "index_j": start,
                          "exponent_i": prev_e, "exponent_j": e}
        prev_end, prev_e = end, e
    return PASS, {"canonical": True}


def _b2_pred(ctx: _AuditContext, i: int, a_i: int, j: int) -> int:
    """floor(a_i log p_i / log p_j) = largest m with p_j^m <= p_i^(a_i)."""
    p_i = ctx.t.nth_prime(i)
    p_j = ctx.t.nth_prime(j)
    prec = ctx.prec
    if _pow_bits(p_i, a_i) <= _EXACT_POW_BITS:
        return compute_l(p_i**a_i, p_j)
    # interval route for astronomically large exponents
    return iv_floor(iv_div(
        iv_mul(iv_from_int(a_i), iv_log_rational(p_i, prec), prec),
        iv_log_rational(p_j, prec),
        prec,
    ), f"floor(a_{i} log p_{i} / log p_{j}) straddles an integer")


def _check_shape_b2(ctx: _AuditContext) -> tuple[str, dict]:
    """|a_j - floor(a_i log p_i / log p_j)| <= 1 for all i < j with a_i,
    a_j >= 1, decided at the corners of each pair of runs.

    For runs I < J of fixed exponents, the floor never decreases in i and
    never increases in j, so over I x J its extremes are the corners
    (s_I, t_J) and (t_I, s_J).  Inside one run of exponent e, p_i < p_j
    puts it at most e - 1, so only its least value, at (s, t), can
    violate.  Runs of exponent 0 hold no index of a pair.  Canonical order
    is never used."""
    runs = [bounds for bounds in ctx.c.run_bounds() if bounds[2]]
    pairs = 0
    for k, (s_i, t_i, e_i) in enumerate(runs):
        for s_j, t_j, e_j in runs[k:]:
            if s_i == s_j:
                corners = [(s_i, t_i)] if t_i > s_i else []
            else:
                corners = [(t_i, s_j), (s_i, t_j)]
            pairs += len(corners)
            for i, j in corners:
                pred = _b2_pred(ctx, i, e_i, j)
                if abs(e_j - pred) > 1:
                    return FAIL, {"index_i": i, "index_j": j,
                                  "exponent_j": e_j, "predicted": pred}
    return PASS, {"corner_pairs_checked": pairs}


def _check_shape_b3(ctx: _AuditContext) -> tuple[str, dict]:
    c = ctx.c
    a_r = c.runs[-1].exponent
    if a_r == 1:
        return PASS, {"last_exponent": 1}
    # the two known exceptions to a_r = 1: n = 4 and n = 36
    if c.runs in (((2, 1),), ((2, 2),)):
        return PASS, {"last_exponent": a_r, "exception": True}
    return FAIL, {"last_exponent": a_r, "index": c.r}


def _check_shape_b4(ctx: _AuditContext) -> tuple[str, dict]:
    c, t = ctx.c, ctx.t
    if c.r < 2:
        return PASS, {"reason": "no index above 1"}
    a1 = c.a(1)

    def bad(i: int, e: int) -> bool:
        # p_i^e < 2^(a1+2) fails on a suffix of each run
        return e > 0 and not _power_below(t.nth_prime(i), e, 2, a1 + 2, ctx.prec)

    i = _violation(ctx, bad, lo=2)
    if i is None:
        return PASS, {"bound_exponent": a1 + 2}
    return FAIL, {"index": i, "prime": t.nth_prime(i), "exponent": c.a(i),
                  "bound_exponent": a1 + 2}


def _power_below(p: int, e: int, q: int, f: int, prec: int,
                 witness: Optional[dict] = None) -> bool:
    """Certified p^e < q^f for ints p, q >= 2, e, f >= 0: exact while both
    powers fit _EXACT_POW_BITS, else e log p against f log q at ``prec``;
    PrecisionError, carrying ``witness``, if undecided."""
    if _pow_bits(p, e) <= _EXACT_POW_BITS and _pow_bits(q, f) <= _EXACT_POW_BITS:
        return p ** e < q ** f
    return iv_less(iv_mul(e, iv_log_rational(p, prec), prec),
                   iv_mul(f, iv_log_rational(q, prec), prec),
                   f"{p}^{_int_text(e)} vs {q}^{_int_text(f)} indeterminate",
                   witness)


def _check_density_b6(ctx: _AuditContext) -> tuple[str, dict]:
    """rho(n) > (1 - eps(p_r)) n/phi(n), decided as P > 1 - eps(p_r) for
    P = rho / (n/phi) = Pi_{p | n} (1 - p^-(a_p+1)), folded one cell piece
    at a time and stopped at the first piece that certifies the verdict.

    After a piece, the unread tail T of P lies in ((q - 2)/(q - 1), 1],
    where q >= 3 is the first prime of the next piece: every a_p >= 1 and
    Pi (1 - x_k) >= 1 - Sum x_k, so T >= 1 - Sum_{m >= q} m^-2 >
    1 - 1/(q - 1).  So a prefix certainly below the bound fails, and one
    whose product with (q - 2)/(q - 1) is certainly above it passes."""
    prec = ctx.prec
    eps = ctx.top.epsilon
    bound = iv_sub(iv_from_int(1), eps, prec)
    product = iv_from_int(1)
    pieces = itertools.pairwise(itertools.chain(_cell_pieces(ctx.c), [None]))
    for k, ((i, j, e), after) in enumerate(pieces, 1):  # one piece read ahead
        product = iv_mul(
            product, _density_piece(ctx.t, i, j, e, prec), prec)
        q = ctx.t.nth_prime(after[0]) if after else None
        witness = {
            "product": product,
            "bound": bound,
            "epsilon_p_r": eps,
            "pieces_read": k,
            "tail_from_prime": q,
        }
        if q is None:
            return _decide(ctx, witness, (bound, product))
        if iv_certainly_less(product, bound):
            return FAIL, witness
        low = iv_mul(product, Fraction(q - 2, q - 1), prec)
        if iv_certainly_less(bound, low):
            return PASS, witness


def _check_vojak_d1(ctx: _AuditContext) -> tuple[str, dict]:
    floor = constants(ctx.prec).min_prime_count
    omega = ctx.c.omega
    status = PASS if omega > floor else FAIL
    return status, {"prime_factors": omega, "floor": floor}


def _check_vojak_d2(ctx: _AuditContext) -> tuple[str, dict]:
    count = sum(run.count for run in ctx.c.runs if run.exponent != 1)
    status = PASS if 14 * count < ctx.r else FAIL
    return status, {"count_exponent_not_one": count, "r": ctx.r}


def _check_vojak_d3(ctx: _AuditContext) -> tuple[str, dict]:
    lower = ctx.top.d3_lower
    mid = iv_div(iv_from_int(ctx.p_r), ctx.log_n, ctx.prec)
    witness = {
        "ratio": mid,
        "lower": lower,
    }
    return _decide(ctx, witness, (lower, mid), (mid, 1))


def _check_vojak_d4(ctx: _AuditContext) -> tuple[str, dict]:
    c, t, prec = ctx.c, ctx.t, ctx.prec
    if c.r < 2:
        return PASS, {"reason": "no index above 1"}
    a1 = c.a(1)
    m_r = compute_m(c.r, t, prec)
    undecided = {"m_r": m_r}
    for start, end, e in c.run_bounds():
        if e == 0 or end < 2:
            continue
        p = t.nth_prime(end)
        ok1 = _power_below(p, e, 2, a1 + 2, prec, undecided)
        # p^e < p e^M(r)  <=>  (e-1) log p < M(r)
        lhs = iv_mul(iv_from_int(e - 1), iv_log_rational(p, prec), prec)
        ok2 = iv_less(lhs, m_r, f"(a-1) log p vs M(r) at index {end}", undecided)
        if not (ok1 and ok2):
            return FAIL, {"index": end, "prime": p, "exponent": e,
                          "below_power_bound": ok1, "below_m_bound": ok2,
                          "m_r": m_r}
    return PASS, {"m_r": m_r}


def _check_exponents_e(ctx: _AuditContext) -> tuple[str, dict]:
    c = ctx.c
    for i, floor in EXPONENT_FLOORS:
        if c.a(i) <= floor:
            return FAIL, {"index": i, "exponent": c.a(i), "strict_floor": floor}
    return PASS, {"floors": [f for _, f in EXPONENT_FLOORS]}


def _check_two_squares(ctx: _AuditContext) -> tuple[str, dict]:
    representable = is_sum_of_two_squares(ctx.c, ctx.t)
    # a least counterexample cannot be a sum of two squares
    status = FAIL if representable else PASS
    return status, {"sum_of_two_squares": representable}


def _check_s_window(ctx: _AuditContext) -> tuple[str, dict]:
    s = ctx.c.s_index()
    if s is None or s >= ctx.r:
        return NOT_APPLICABLE, {"reason": "no index s < r with exponent >= 2",
                                "s": s, "r": ctx.r}
    p_s = ctx.t.nth_prime(s)
    lower, upper = ctx.top.s_lower, ctx.top.s_upper
    witness = {
        "s": s, "p_s": p_s, "p_r": ctx.p_r,
        "lower": lower, "upper": upper,
    }
    return _decide(ctx, witness, (lower, p_s), (p_s, upper))


# The ledger, in report order.
_CHECK_FUNCS: dict[str, Callable[[_AuditContext], tuple[str, dict]]] = {
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
CHECK_IDS = tuple(_CHECK_FUNCS)

# Checks that read no primes; every other check needs the table to cover
# the candidate.
_TABLE_FREE = frozenset({"shape_B1", "shape_B3", "vojak_D1", "vojak_D2",
                         "exponents_E"})


def _verdict(ctx: _AuditContext, check_id: str,
             check: Callable[[_AuditContext], tuple[str, dict]]) -> Verdict:
    """Run one check on the precision ladder from the audit's precision,
    forming the state at a higher rung only when the rung below raised
    PrecisionError.  A decided verdict is stamped with the rung that
    decided it.  Unknown, stamped with the audit's precision, when the
    check reads primes the table does not cover, or when its comparison
    stays indeterminate at every rung: then the witness is the top rung's
    reason and witness, with the suggested precision."""
    if not ctx.covered and check_id not in _TABLE_FREE:
        return Verdict(UNKNOWN, {
            "reason": "prime table does not cover the candidate",
            "needed_index": ctx.r,
            "table_primes": len(ctx.t),
        }, ctx.prec)

    def attempt(work: int) -> Verdict:
        rung = ctx if work == ctx.prec else _AuditContext(
            ctx.c, ctx.t, work, r=ctx.r, p_r=ctx.p_r)
        return Verdict(*check(rung), work)

    try:
        return escalate(attempt, ctx.prec)
    except PrecisionError as e:
        witness = {"reason": str(e), **e.witness,
                   "suggested_precision_bits": e.suggested_precision_bits}
        return Verdict(UNKNOWN, witness, ctx.prec)


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
    return _verdict(_AuditContext(c, t, prec), check_id, _CHECK_FUNCS[check_id])


def full_audit(c: CandidateFactorization, t: PrimeTable,
               prec: int = DEFAULT_PRECISION_BITS,
               include_alt_log_window: bool = False) -> AuditReport:
    """Every necessary-condition check, in the fixed ledger order."""
    ctx = _AuditContext(c, t, prec)
    # looked up per call, so a wrapper swapped into _CHECK_FUNCS runs
    checks = [(cid, _verdict(ctx, cid, _CHECK_FUNCS[cid])) for cid in CHECK_IDS]
    extra = []
    if include_alt_log_window:
        extra.append(("log_window_alt",
                      _verdict(ctx, "log_window_alt", _check_log_window_alt)))
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
        """Trace ratios are kept as enclosures and written out here."""
        return {
            "candidate": self.candidate.to_json(),
            "status": self.status,
            "trace": [step if step["ratio"] is None
                      else {**step, "ratio": interval_to_json(step["ratio"])}
                      for step in self.trace],
        }


# normalize re-sums log n from the memoized cells every this many steps: a
# carried sum widens by about one ulp per step, so it stays within 2^8 times
# the width of a fresh sum.
_RESUM_STEPS = 256


def normalize(c: CandidateFactorization, t: PrimeTable,
              prec: int = DEFAULT_PRECISION_BITS,
              step_limit: int = 10000) -> NormalizationResult:
    """Drive a candidate into the exponent window L <= a_i <= U.

    Divide steps (a_s > U(p_s), removing one factor p_s) run first, scanning
    from the largest index; then swap steps (a_s < L(p_s), trading the top
    prime for one more factor of p_s, which needs a_r = 1).  Each step logs
    a certified enclosure of G(n)/G(n') and whether it is certainly < 1.
    One audit context is the state: each step's edit map, {s: -1} or {r: -1,
    s: +1} in decreasing index order, moves its runs and a carried log n,
    re-summed every _RESUM_STEPS.  A divide that leaves r hands p_r on.
    The step's ratio is its sigma part times the next state's log log n over
    this state's, so each state forms log log n once; a re-sum step's ratio
    reads the carried log n', and its next state is a fresh sum.
    """
    if step_limit < 1:
        raise DomainError(f"step limit must be >= 1, got {_int_text(step_limit)}")
    _require_table(c, t)  # r never grows, so the table covers every state
    ctx = _AuditContext(c, t, prec)
    trace: list[dict] = []
    for step in range(1, step_limit + 1):
        try:
            upper_ok = _log_n_above_p_r(ctx)
            s = _violation(ctx, ctx.above_u, last=True) if upper_ok else None
        except PrecisionError:
            return NormalizationResult(ctx.c, INDETERMINATE, trace)
        if s is not None:
            action, edits = "divide", {s: -1}
        else:
            s = _below_l(ctx, last=True)
            if s is None:
                status = IN_WINDOW if upper_ok else BLOCKED_LOG_WINDOW
                return NormalizationResult(ctx.c, status, trace)
            if ctx.c.runs[-1].exponent != 1:  # a_r
                return NormalizationResult(ctx.c, BLOCKED_EXPONENT, trace)
            action, edits = "swap", {ctx.r: -1, s: 1}
        primes = {s: t.nth_prime(s), ctx.r: ctx.p_r}
        lg = _log_after(ctx.log_n, edits, primes, prec)
        carried = step % _RESUM_STEPS != 0
        c_after, r_after, before = _edited(ctx.c, edits, ctx.r)
        nxt = _AuditContext(c_after, t, prec, lg if carried else None, r_after,
                            ctx.p_r if r_after == ctx.r else None)
        try:
            loglog_after = _loglog_from(lg, prec)
            if carried:  # the next state's log n is lg
                nxt.loglog = loglog_after
            ratio = _g_ratio_edit(before, edits, primes, prec, ctx.loglog,
                                  loglog_after)
        except DomainError:  # log n or log n' is not certainly > 1
            ratio = None
        trace.append(_step_entry(ctx, action, s, primes[s], ratio))
        ctx = nxt
    return NormalizationResult(ctx.c, STEP_LIMIT, trace)


def _step_entry(ctx: _AuditContext, action: str, s: int, p_s: int,
                ratio: Optional[IntervalScalar]) -> dict:
    """Trace entry of a divide or swap step at index s, prime p_s, with the
    enclosure ``ratio`` of G(n)/G(n'), or None where it is undefined;
    NormalizationResult.to_json writes the enclosure."""
    entry = {"action": action, "index": s, "prime": p_s}
    if action == "swap":
        entry["removed_prime"] = ctx.p_r
    below = None if ratio is None else iv_certainly_less(ratio, 1)
    entry.update(ratio=ratio, ratio_certainly_below_one=below)
    return entry


def _edited(c: CandidateFactorization, edits: dict[int, int], r: int
            ) -> tuple[CandidateFactorization, int, dict[int, int]]:
    """Add edits[i] to a_i at each edited position i <= r = c.r; returns
    the result, its r and each old a_i.  One walk down from r splits only
    the runs holding each i; a_i + edits[i] merges into an equal neighbour
    run, trailing zeros are stripped, a hole below r is an InvariantError."""
    runs, before = list(c.runs), {}
    k, start = len(runs), r + 1  # runs[k] starts at position start
    for i in sorted(edits, reverse=True):
        while start > i:
            k -= 1
            start -= runs[k].count
        e, count = runs[k]
        before[i], new_e, end = e, e + edits[i], start + count - 1
        if new_e == 0 and i < r:
            raise InvariantError(f"edit at interior index {i} would leave a hole")
        lo, hi, mid, first = k, k + 1, 1, start
        if i == start and lo and runs[lo - 1].exponent == new_e:
            lo -= 1
            mid += runs[lo].count
            first -= runs[lo].count
        if i == end and hi < len(runs) and runs[hi].exponent == new_e:
            mid += runs[hi].count
            hi += 1
        pieces = [Run(new_e, mid)]  # and the non-empty rest of the run
        if i > start:
            pieces.insert(0, Run(e, i - start))
        if i < end:
            pieces.append(Run(e, end - i))
        runs[lo:hi] = pieces
        k, start = lo, first  # the edits below i lie in runs[:lo + 1]
    while runs and runs[-1].exponent == 0:
        r -= runs.pop().count
    return CandidateFactorization(tuple(runs)), r, before


def report_to_json_str(report: AuditReport) -> str:
    """Deterministic serialization (stable key order, no whitespace drift)."""
    return _json_text(report.to_json())
