"""Exact sigma sieves, range verification, and candidate generators.

verify_range checks sigma(n) < e^gamma n log log n for every n in a range
with exact divisor sums and certified thresholds: a fast per-block screen
discards the overwhelming majority, and only screened survivors get a
per-n interval comparison (escalating precision until the comparison is
strict or the retry ladder is exhausted).

superabundant_up_to scans abundancy records sigma(n)/n exactly, and
ca_candidate builds the exponent vector that maximizes the sigma ratio per
log-cost at a given epsilon, using certified floors of interval logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import DomainError, PrecisionError, ResourceBudgetError, TableTooSmallError
from .factored import CandidateFactorization
from .intervals import (
    _MAX_ESCALATIONS,
    DEFAULT_PRECISION_BITS,
    Comparison,
    IntervalScalar,
    constants,
    escalate,
    iv_compare,
    iv_div,
    iv_from_fraction,
    iv_from_int,
    iv_log,
    iv_mul,
    iv_pow,
    iv_sub,
)
from .primes import PrimeTable

_SEGMENT = 1 << 20
_SCREEN_BLOCK = 1 << 12


def sigma_range(lo: int, hi: int) -> np.ndarray:
    """sigma(n) for n in [lo, hi] inclusive, exact, as int64.

    Divisor-pair accumulation: every d <= sqrt(m) contributes d + m/d,
    and perfect squares subtract the double-counted sqrt(m).
    """
    if lo < 1 or hi < lo:
        raise DomainError(f"bad sigma range [{lo}, {hi}]")
    out = np.zeros(hi - lo + 1, dtype=np.int64)
    end = hi + 1
    for d in range(1, math.isqrt(hi) + 1):
        first = max(d * d, ((lo + d - 1) // d) * d)
        if first >= end:
            continue
        mult = np.arange(first, end, d, dtype=np.int64)
        out[mult - lo] += d + mult // d
    k0 = math.isqrt(lo - 1) + 1
    for k in range(k0, math.isqrt(hi) + 1):
        out[k * k - lo] -= k
    return out


def _screen_float_below(x: Fraction) -> float:
    """A float guaranteed <= x (for conservative screening)."""
    f = float(x)
    while Fraction(f) > x:
        f = math.nextafter(f, -math.inf)
    return f


def _threshold(n: int, prec: int) -> IntervalScalar:
    """Enclosure of e^gamma * n * log log n."""
    lg = iv_log(iv_from_int(n), prec)
    return iv_mul(
        iv_mul(constants(prec).exp_gamma, iv_from_int(n), prec),
        iv_log(lg, prec),
        prec,
    )


@dataclass(frozen=True)
class VerificationRecord:
    n: int
    sigma: int
    threshold: IntervalScalar
    verdict: str  # "holds" | "fails" | "unknown"

    @property
    def rho(self) -> Fraction:
        return Fraction(self.sigma, self.n)


@dataclass
class RangeVerification:
    lo: int
    hi: int
    checked: int
    violations: list[VerificationRecord] = field(default_factory=list)
    unknowns: list[VerificationRecord] = field(default_factory=list)


def _classify(n: int, sigma: int, prec: int) -> VerificationRecord:
    """Certified verdict for one n, escalating precision on overlap."""
    thr = None

    def attempt(p: int) -> Optional[VerificationRecord]:
        nonlocal thr
        thr = _threshold(n, p)
        cmp = iv_compare(iv_from_int(sigma), thr)
        if cmp is Comparison.CERTAINLY_LESS:
            return VerificationRecord(n, sigma, thr, "holds")
        if cmp is Comparison.CERTAINLY_GREATER:
            return VerificationRecord(n, sigma, thr, "fails")
        return None

    rec = escalate(attempt, prec)
    return rec if rec is not None else VerificationRecord(n, sigma, thr, "unknown")


def verify_range(lo: int, hi: int, prec: int = DEFAULT_PRECISION_BITS,
                 segment: int = _SEGMENT) -> RangeVerification:
    """Certified verdict of sigma(n) < e^gamma n log log n over [lo, hi].

    Every n with a certified violation lands in ``violations``; n whose
    comparison stayed indeterminate after the retry ladder land in
    ``unknowns`` (none are silently dropped).
    """
    if lo < 3:
        raise DomainError(f"range starts at {lo}; log log n needs n >= 3")
    if hi < lo:
        raise DomainError(f"empty range [{lo}, {hi}]")
    result = RangeVerification(lo=lo, hi=hi, checked=hi - lo + 1)
    seg_lo = lo
    while seg_lo <= hi:
        seg_hi = min(seg_lo + segment - 1, hi)
        sig = sigma_range(seg_lo, seg_hi)
        blk_lo = seg_lo
        while blk_lo <= seg_hi:
            blk_hi = min(blk_lo + _SCREEN_BLOCK - 1, seg_hi)
            # sigma(n) below the threshold at the block start certainly
            # holds for every n in the block (the threshold is increasing)
            screen = _screen_float_below(_threshold(blk_lo, prec).lo)
            window = sig[blk_lo - seg_lo : blk_hi - seg_lo + 1]
            for off in np.flatnonzero(window >= screen):
                n = blk_lo + int(off)
                rec = _classify(n, int(window[off]), prec)
                if rec.verdict == "fails":
                    result.violations.append(rec)
                elif rec.verdict == "unknown":
                    result.unknowns.append(rec)
            blk_lo = blk_hi + 1
        seg_lo = seg_hi + 1
    return result


def robin_exceptions(prec: int = DEFAULT_PRECISION_BITS) -> list[int]:
    """All n in [3, 5040] where the inequality fails."""
    res = verify_range(3, 5040, prec)
    if res.unknowns:
        raise PrecisionError(
            f"{len(res.unknowns)} indeterminate comparisons below 5041",
            suggested_precision_bits=prec * 2,
        )
    return [rec.n for rec in res.violations]


@dataclass(frozen=True)
class AbundanceRecord:
    n: int
    sigma: int

    @property
    def rho(self) -> Fraction:
        return Fraction(self.sigma, self.n)


def superabundant_up_to(limit: int, segment: int = _SEGMENT) -> list[AbundanceRecord]:
    """All n <= limit with sigma(n)/n strictly above every smaller n's value.

    Record confirmation is exact integer cross-multiplication; a slightly
    loosened float screen only pre-filters candidates.
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    records: list[AbundanceRecord] = []
    best_num, best_den = 0, 1
    seg_lo = 1
    while seg_lo <= limit:
        seg_hi = min(seg_lo + segment - 1, limit)
        sig = sigma_range(seg_lo, seg_hi)
        ns = np.arange(seg_lo, seg_hi + 1, dtype=np.int64)
        # screen against the record entering the segment, loosened so float
        # rounding can never hide a true record
        lhs = sig.astype(np.float64) * float(best_den)
        rhs = ns.astype(np.float64) * float(best_num) * (1.0 - 1e-9)
        for off in np.flatnonzero(lhs > rhs):
            n = seg_lo + int(off)
            s = int(sig[off])
            if s * best_den > best_num * n:
                records.append(AbundanceRecord(n, s))
                best_num, best_den = s, n
        seg_lo = seg_hi + 1
    return records


EpsilonLike = Union[int, float, str, Fraction, Decimal]


def _as_fraction(eps: EpsilonLike) -> Fraction:
    if isinstance(eps, float):
        return Fraction(eps)  # exact binary value of the float
    return Fraction(eps)


def _power_floor_of_interval(x: IntervalScalar, p: int, hint: float) -> Optional[int]:
    """Largest u with p^u <= x, certified against the enclosure; None if the
    enclosure straddles a power of p."""
    u = max(int(hint), 0)
    # walk down while p^u > x is not certain to be <= x
    while u > 0 and Fraction(p) ** u > x.hi:
        u -= 1
    while Fraction(p) ** (u + 1) <= x.hi:
        u += 1
    # now p^u <= x.hi < p^(u+1); certify against x.lo
    if Fraction(p) ** u <= x.lo:
        return u
    return None


def _ca_exponent(p: int, eps: Fraction, prec: int) -> int:
    """floor(log((p^(1+eps) - 1)/(p^eps - 1)) / log p) - 1, certified."""
    if eps.denominator == 1:
        # integer epsilon: the quotient is an exact rational
        e = eps.numerator
        x = Fraction(p ** (e + 1) - 1, p**e - 1)
        u = 0
        while Fraction(p) ** (u + 1) <= x:
            u += 1
        return u - 1
    pv = iv_from_int(p)

    def attempt(work: int) -> Optional[int]:
        num = iv_sub(iv_pow(pv, 1 + eps, work), iv_from_int(1), work)
        den = iv_sub(iv_pow(pv, eps, work), iv_from_int(1), work)
        x = iv_div(num, den, work)
        hint = math.log(max(x.hi_float, 2.0)) / math.log(p)
        return _power_floor_of_interval(x, p, hint)

    u = escalate(attempt, prec)
    if u is None:
        raise PrecisionError(
            f"exponent of {p} straddles a power boundary at eps={eps}",
            suggested_precision_bits=prec << (_MAX_ESCALATIONS + 1),
        )
    return u - 1


def ca_candidate(eps: EpsilonLike, t: PrimeTable,
                 prec: int = DEFAULT_PRECISION_BITS) -> CandidateFactorization:
    """The candidate whose exponent at each prime p is
    floor(log((p^(1+eps)-1)/(p^eps-1))/log p) - 1.

    Exponents are non-increasing in p, so each exponent level is located by
    binary search over the prime table.  Raises DomainError when the vector
    is empty (eps too large) and TableTooSmallError when the table cannot
    bracket the last prime with exponent 1.
    """
    eps = _as_fraction(eps)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {eps}")
    a2 = _ca_exponent(2, eps, prec)
    if a2 < 1:
        raise DomainError(
            f"epsilon {eps} gives an empty exponent vector (a(2) = {a2})"
        )
    if _ca_exponent(t.nth_prime(len(t)), eps, prec) >= 1:
        raise TableTooSmallError(
            f"every prime up to {t.limit} has a positive exponent at "
            f"eps={eps}; enlarge the table",
            needed=t.limit + 1,
        )

    def last_index_with(e: int, lo: int, hi: int) -> int:
        # largest i in [lo, hi] with exponent(p_i) >= e; exponent(p_lo) >= e
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _ca_exponent(t.nth_prime(mid), eps, prec) >= e:
                lo = mid
            else:
                hi = mid - 1
        return lo

    pairs = []
    prev_boundary = 0
    for e in range(a2, 0, -1):
        boundary = last_index_with(e, max(prev_boundary, 1), len(t))
        if boundary > prev_boundary:
            pairs.append((e, boundary - prev_boundary))
            prev_boundary = boundary
    return CandidateFactorization.from_runs(pairs)


def ca_sweep(count: int, t: PrimeTable, eps0: EpsilonLike = 1,
             ratio: EpsilonLike = Fraction(9, 10),
             prec: int = DEFAULT_PRECISION_BITS,
             max_steps: int = 2000) -> list[CandidateFactorization]:
    """First ``count`` distinct candidates along the geometric epsilon grid
    eps0 * ratio^j, j = 0, 1, 2, ...  (decreasing epsilon, growing candidates).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    eps0 = _as_fraction(eps0)
    ratio = _as_fraction(ratio)
    if not 0 < ratio < 1:
        raise DomainError(f"ratio must be in (0, 1), got {ratio}")
    out: list[CandidateFactorization] = []
    seen = set()
    eps = eps0
    for _ in range(max_steps):
        try:
            cand = ca_candidate(eps, t, prec)
        except DomainError:
            eps *= ratio
            continue
        if cand.runs not in seen:
            seen.add(cand.runs)
            out.append(cand)
            if len(out) == count:
                return out
        eps *= ratio
    raise ResourceBudgetError(
        f"only {len(out)} distinct candidates within {max_steps} grid steps"
    )
