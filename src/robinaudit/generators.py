"""Exact sigma sieves, range verification, and candidate generators.

sigma_range is a multiplicative segmented sieve: for every prime p up to
sqrt(hi) it folds sigma(p^a) into strided numpy views at the multiples of
p, p^2, ..., and the cofactor left above 1 is one prime q, worth 1 + q.

verify_range checks sigma(n) < e^gamma n log log n for every n in a range
with exact divisor sums and certified thresholds.  The threshold is convex
for n > e, so its tangent at a segment's start, rounded down to exact
int64 arithmetic, is a lower bound over the whole segment (segments that
more than double their start take a tangent per doubling): it discards
the overwhelming majority, and only screened survivors get a per-n interval
comparison (escalating precision until the comparison is strict or the
retry ladder is exhausted).  Ranges end at 10^18, where sigma(n) still fits
int64.

superabundant_up_to scans abundancy records sigma(n)/n exactly, and
ca_candidate builds the exponent vector that maximizes the sigma ratio per
log-cost at a given epsilon, with one certified comparison of p^eps
against an exact rational per probe.
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
    iv_add,
    iv_compare,
    iv_div,
    iv_from_int,
    iv_log,
    iv_mul,
    power_below,
)
from .primes import PrimeTable, _prime_chunks

_SEGMENT = 1 << 20
# sigma(n) < e^gamma n log log n + 0.6483 n / log log n < 6.9e18 up to here,
# so sigma and the tangent screen fit int64
_MAX_N = 10**18


def sigma_range(lo: int, hi: int) -> np.ndarray:
    """sigma(n) for n in [lo, hi] inclusive, exact, as int64; hi <= 10^18.

    For each prime p <= sqrt(hi), the multiples of p^a trade their factor
    sigma(p^(a-1)) for sigma(p^a) in place, and ``part`` collects the
    powers of those primes in n.  What is left, n / part, is 1 or one
    prime q > sqrt(hi).
    """
    if lo < 1 or hi < lo:
        raise DomainError(f"bad sigma range [{lo}, {hi}]")
    if hi > _MAX_N:
        raise DomainError(f"sigma range ends at {hi}, above the int64 cap 10^18")
    size = hi - lo + 1
    out = np.ones(size, dtype=np.int64)
    part = np.ones(size, dtype=np.int64)
    for chunk in _prime_chunks(math.isqrt(hi)):
        for p in chunk.tolist():
            q, prev = p, 1  # q = p^a, prev = sigma(p^(a-1))
            while q <= hi:
                first = -lo % q
                if first >= size:
                    break
                cur = prev * p + 1
                hits = out[first::q]
                if prev > 1:
                    hits //= prev
                hits *= cur
                part[first::q] *= p
                prev = cur
                q *= p
    cofactor = np.arange(lo, hi + 1, dtype=np.int64)
    cofactor //= part
    cofactor += cofactor > 1  # a prime q contributes 1 + q, the unit 1
    out *= cofactor
    return out


def _threshold(n: int, prec: int) -> IntervalScalar:
    """Enclosure of e^gamma * n * log log n."""
    lg = iv_log(iv_from_int(n), prec)
    return iv_mul(
        iv_mul(constants(prec).exp_gamma, iv_from_int(n), prec),
        iv_log(lg, prec),
        prec,
    )


def _tangent_screen(a: int, size: int, prec: int) -> np.ndarray:
    """Integers screen[k] <= e^gamma (a+k) log log (a+k) for 0 <= k < size.

    The threshold T is convex for n > e, so on a piece starting at b,
    T(b) + T'(b) j lies below it, with T'(b) = e^gamma (log log b + 1/log b).
    A = floor(T(b).lo) and B = floor(T'(b).lo 2^32) round both down, and
    A + ((B j) >> 32) is exact int64 arithmetic (B < 2^35 for b <= 10^18,
    so B j < 2^63 while size <= 2^26), and every entry is at most T(b + j).  On pieces [b, 2b) each tangent stays within 1 % of T from
    b = 5041 on, and from b = 2^20 on a 2^20 segment is one piece.
    """
    screen = np.arange(size, dtype=np.int64)
    b, end = a, a + size
    while b < end:
        piece = screen[b - a : min(2 * b, end) - a]
        lg = iv_log(iv_from_int(b), prec)
        slope = iv_mul(constants(prec).exp_gamma,
                       iv_add(iv_log(lg, prec), iv_div(1, lg, prec), prec), prec)
        A = math.floor(_threshold(b, prec).lo)
        B = math.floor(slope.lo * (1 << 32))
        piece -= b - a
        piece *= B
        piece >>= 32
        piece += A
        b *= 2
    return screen


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
        cmp = iv_compare(sigma, thr)
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
    ``unknowns`` (none are silently dropped).  hi may be at most 10^18 and
    segment at most 2^26, where sigma(n) and the int64 screen still fit;
    beyond either, DomainError.
    """
    if lo < 3:
        raise DomainError(f"range starts at {lo}; log log n needs n >= 3")
    if hi < lo:
        raise DomainError(f"empty range [{lo}, {hi}]")
    if hi > _MAX_N:
        raise DomainError(f"range ends at {hi}, above the int64 cap 10^18")
    if not 1 <= segment <= 1 << 26:
        raise DomainError(f"segment must be in [1, 2^26], got {segment}")
    result = RangeVerification(lo=lo, hi=hi, checked=hi - lo + 1)
    seg_lo = lo
    while seg_lo <= hi:
        seg_hi = min(seg_lo + segment - 1, hi)
        sig = sigma_range(seg_lo, seg_hi)
        # sigma(n) below the screen certainly holds
        survivors = np.flatnonzero(sig >= _tangent_screen(seg_lo, sig.size, prec))
        for off in survivors.tolist():
            rec = _classify(seg_lo + off, int(sig[off]), prec)
            if rec.verdict == "fails":
                result.violations.append(rec)
            elif rec.verdict == "unknown":
                result.unknowns.append(rec)
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

    Record confirmation is exact integer cross-multiplication.  A float
    screen only pre-filters: n passes when fl(sigma/n) exceeds the running
    maximum of the earlier fl(sigma/m), times 1 - 1e-9.  It cannot hide a
    record: for limit <= 10^15, sigma(n) and n are below 2^53 and exact,
    each of the three roundings on the way (two quotients, one product)
    errs by a relative 2^-53 at most, and 1e-9 >> 3 * 2^-53.
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if limit > 10**15:
        raise DomainError(f"limit {limit} above 10^15, where sigma(n) leaves float64")
    records: list[AbundanceRecord] = []
    best_num, best_den = 0, 1
    seg_lo = 1
    while seg_lo <= limit:
        seg_hi = min(seg_lo + segment - 1, limit)
        sig = sigma_range(seg_lo, seg_hi)
        ratio = sig / np.arange(seg_lo, seg_hi + 1, dtype=np.float64)
        # best[i] = max(entering record, ratio[:i])
        best = np.empty_like(ratio)
        best[0] = best_num / best_den
        best[1:] = ratio[:-1]
        np.maximum.accumulate(best, out=best)
        best *= 1.0 - 1e-9
        for off in np.flatnonzero(ratio > best).tolist():
            n = seg_lo + off
            s = int(sig[off])
            if s * best_den > best_num * n:
                records.append(AbundanceRecord(n, s))
                best_num, best_den = s, n
        seg_lo = seg_hi + 1
    return records


EpsilonLike = Union[int, float, str, Fraction, Decimal]


def _ca_at_least(p: int, e: int, eps: Fraction, prec: int) -> bool:
    """a(p) >= e for e >= 1, where a(p) is the CA exponent at eps.

    With u = p^eps, a(p) >= e means (p u - 1)/(u - 1) >= p^(e+1), that is
    u <= F = (p^(e+1) - 1)/(p^(e+1) - p).  Equality never holds: F is a
    rational strictly between 1 and 2, while p^eps is an integer or
    irrational.  So one certified comparison p^eps < F decides it."""
    q = p ** (e + 1)
    below = power_below(p, eps, Fraction(q - 1, q - p), 1, prec)
    if below is None:
        raise PrecisionError(
            f"exponent of {p} straddles a power boundary at eps={eps}",
            suggested_precision_bits=prec << (_MAX_ESCALATIONS + 1),
        )
    return below


def ca_candidate(eps: EpsilonLike, t: PrimeTable,
                 prec: int = DEFAULT_PRECISION_BITS) -> CandidateFactorization:
    """The candidate whose exponent at each prime p is
    a(p) = floor(log((p^(1+eps)-1)/(p^eps-1))/log p) - 1.

    Each exponent is decided by one certified comparison per probe,
    a(p) >= e exactly when p^eps < (p^(e+1) - 1)/(p^(e+1) - p).  a(2) is
    found by walking e upward; exponents are non-increasing in p, so every
    lower level is located by binary search over the prime table.  Raises
    DomainError when the vector is empty (eps too large) and
    TableTooSmallError when the table cannot bracket the last prime with
    exponent 1.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {eps}")
    a2 = 0
    while _ca_at_least(2, a2 + 1, eps, prec):
        a2 += 1
    if a2 < 1:
        raise DomainError(
            f"epsilon {eps} gives an empty exponent vector (a(2) = {a2})"
        )
    if _ca_at_least(t.nth_prime(len(t)), 1, eps, prec):
        raise TableTooSmallError(
            f"every prime up to {t.limit} has a positive exponent at "
            f"eps={eps}; enlarge the table",
            needed=t.limit + 1,
        )

    def last_index_with(e: int, lo: int, hi: int) -> int:
        # largest i in [lo, hi] with exponent(p_i) >= e; exponent(p_lo) >= e
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _ca_at_least(t.nth_prime(mid), e, eps, prec):
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
    eps0 = Fraction(eps0)
    ratio = Fraction(ratio)
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
