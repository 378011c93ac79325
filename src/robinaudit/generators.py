"""Range verification, abundancy records, and candidate generators.

verify_range checks sigma(n) < e^gamma n log log n for every n in a range
with certified thresholds, segment by segment.  A segment [b, h] never
spans more than one doubling (h < 2b), so one float c <= e^gamma log log b
bounds T(n)/n from below on it, T the threshold.  Pass 1 discards the n
whose proven float bound on sigma(n)/n (_abundancy_bound) is below c, all
but a few in 10^4 of the integers.  Pass 2 computes sigma(n) exactly for
the rest, from the primes dividing each and the cofactor, and discards
the n whose float sigma(n)/n with the same slack (_abundancy) is below c.
Only what is left, about one integer in 10^7, gets a per-n interval
comparison (escalating precision until the comparison is strict or the
retry ladder is exhausted).  Ranges end at 10^18, where sigma(n) still
fits int64.

superabundant_up_to finds the records of sigma(n)/n, exactly, among the n
with non-increasing exponents over 2, 3, 5, ..., and ca_candidate builds
the exponent vector that maximizes the sigma ratio per log-cost at a given
epsilon, with one certified comparison of p^eps against an exact rational
per probe.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import DomainError, ResourceBudgetError, TableTooSmallError, _int_text
from .factored import CandidateFactorization
from .intervals import (
    DEFAULT_PRECISION_BITS,
    Comparison,
    IntervalScalar,
    constants,
    escalate,
    iv_compare,
    iv_from_int,
    iv_log,
    iv_log_rational,
    iv_mul,
    ladder_exhausted,
    power_below,
)
from .primes import PrimeTable, _prime_chunks

# The longest verify_range segment; see _segment_length.
_SEGMENT = 1 << 20
# sigma(n) < e^gamma n log log n + 0.6483 n / log log n < 6.9e18 up to here,
# so sigma fits int64
_MAX_N = 10**18


_WHEEL = (2, 3, 5, 7, 11, 13)
_WHEEL_PERIOD = 30030
# Hits of the larger primes scattered at a time by _abundancy_bound.
_HIT_BLOCK = 1 << 16


def _abundancy_bound(lo: int, size: int, root: int,
                     out: np.ndarray) -> np.ndarray:
    """Floats bound[k] > sigma(n)/n for n = lo + k, 0 <= k < size, given
    that every such n is below (root + 1)^2, written to out[:size], a
    view that is returned.

    bound[k] = slack * prod fl(p/(p-1)) over the primes p <= root dividing
    n, with slack = (1 + 1/root)(1 + 1e-9).  Exactly, sigma(n)/n is below
    prod p/(p-1) over all p | n; n has at most one prime factor q > root,
    with q >= root + 1 and q^2 > n, so its factor 1 + 1/q is below
    1 + 1/root.  n <= 10^18 has at most 15 distinct prime factors, so each
    entry is at most 15 quotients and 15 products, and the slack about 5
    more roundings, each off by a relative 2^-53 at most: under 40 * 2^-53
    < 5e-15 in all, which the factor 1 + 1e-9 covers.

    The factors of the primes up to 13 repeat with period 30030, so they
    are formed over one period and tiled; primes from size / 256 on are
    applied by np.multiply.at, prime-major, one run of primes with about
    _HIT_BLOCK hits at a time.  Every entry still multiplies the slack by
    its factors in increasing p.
    """
    bound = out[:size]
    w = min(size, _WHEEL_PERIOD)
    bound[:w] = (1 + 1 / root) * (1 + 1e-9)
    for p in _WHEEL:
        if p <= root:
            bound[(-lo) % p : w : p] *= p / (p - 1)
    reps = size // w
    bound[w : reps * w].reshape(reps - 1, w)[:] = bound[:w]
    bound[reps * w :] = bound[: size - reps * w]
    for chunk in _prime_chunks(root):
        chunk = chunk[chunk > _WHEEL[-1]]
        firsts = (-lo) % chunk
        ratios = chunk / (chunk - 1)
        k = int(np.searchsorted(chunk, size >> 8))
        for p, first, ratio in zip(chunk[:k].tolist(), firsts[:k].tolist(),
                                   ratios[:k].tolist()):
            if first < size:
                bound[first::p] *= ratio
        p, first, ratio = chunk[k:], firsts[k:], ratios[k:]
        hits = (size - first + p - 1) // p  # 0 when first >= size
        # hit j of each prime is entry first + p j, listed prime-major, for
        # runs of primes with about _HIT_BLOCK hits each, so the index
        # arrays stay small
        cuts = np.searchsorted(np.cumsum(hits), np.arange(
            _HIT_BLOCK, hits.sum(), _HIT_BLOCK)).tolist()
        for a, b in zip([0] + cuts, cuts + [p.size]):
            h = hits[a:b]
            idx = np.arange(h.sum()) - np.repeat(np.cumsum(h) - h, h)
            idx *= np.repeat(p[a:b], h)
            idx += np.repeat(first[a:b], h)
            np.multiply.at(bound, idx, np.repeat(ratio[a:b], h))
    return bound


# Entries of one survivors-by-primes remainder block in _sigma_sparse.
_PAIR_BLOCK = 1 << 20


def _sigma_sparse(ns: np.ndarray, root: int) -> np.ndarray:
    """sigma(n) for each n of the int64 array ``ns``, exact, as int64, given
    that every n is below (root + 1)^2 and at most 10^18.

    The primes p <= root are walked once, in sieve segments, to find the
    pairs (n, p) with p | n; each pair gets the power p^a exactly dividing
    n and sigma(p^a).  What is left of n after those powers is 1 or one
    prime q > root, worth 1 + q.
    """
    rows, ps = [np.empty(0, np.intp)], [np.empty(0, np.int64)]
    for chunk in _prime_chunks(root):
        step = max(1, _PAIR_BLOCK // max(chunk.size, 1))
        for s in range(0, ns.size, step):
            row, col = np.nonzero(ns[s : s + step, None] % chunk == 0)
            rows.append(row + s)
            ps.append(chunk[col])
    row = np.concatenate(rows)
    p = np.concatenate(ps)
    n = ns[row]
    power, term = p.copy(), p + 1  # p^a and sigma(p^a)
    more = np.flatnonzero(n // power % p == 0)
    while more.size:
        power[more] *= p[more]
        term[more] = term[more] * p[more] + 1
        more = more[n[more] // power[more] % p[more] == 0]
    part = np.ones_like(ns)
    np.multiply.at(part, row, power)
    sigma = np.ones_like(ns)
    np.multiply.at(sigma, row, term)
    cofactor = ns // part
    sigma *= np.where(cofactor > 1, cofactor + 1, 1)
    return sigma


def sigma_range(lo: int, hi: int) -> np.ndarray:
    """sigma(n) for n in [lo, hi] inclusive, exact, as int64; hi <= 10^18."""
    if lo < 1 or hi < lo:
        raise DomainError(f"bad sigma range [{_int_text(lo)}, {_int_text(hi)}]")
    if hi > _MAX_N:
        raise DomainError(f"sigma range ends at {_int_text(hi)}, above the "
                          "int64 cap 10^18")
    return _sigma_sparse(np.arange(lo, hi + 1, dtype=np.int64), math.isqrt(hi))


def _threshold(n: int, prec: int) -> IntervalScalar:
    """Enclosure of e^gamma * n * log log n."""
    llg = iv_log(iv_log(iv_from_int(n), prec), prec)
    return iv_mul(iv_mul(constants(prec).exp_gamma, iv_from_int(n), prec),
                  llg, prec)


def _abundancy(sigma: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Floats at least sigma(n)/n, from the exact int64 sigma(n) and n:
    fl(fl(fl(sigma) / fl(n)) * fl(1 + 1e-9)) takes 4 roundings of relative
    size 2^-53 at most, and fl(1 + 1e-9) > 1 + 1e-9 - 2^-52, so the result
    is at least sigma(n)/n (1 - 2^-53)^4 (1 + 1e-9 - 2^-52) > sigma(n)/n.
    An n whose entry is below a c <= T(n)/n certainly holds."""
    return sigma / ns * (1 + 1e-9)


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


def _segment_length(b: int) -> int:
    """Length of the verify_range segment that starts at b, before its
    caps at 2b and hi: half of _SEGMENT, which halves the float64 bound's
    memory, or twice the root sqrt(b), whose primes each segment walks
    once or twice, whichever is longer, up to _SEGMENT.  It grows with b,
    so the segment starting at hi is the longest."""
    return min(_SEGMENT, max(_SEGMENT >> 1, 2 * math.isqrt(b)))


def verify_range(lo: int, hi: int,
                 prec: int = DEFAULT_PRECISION_BITS) -> RangeVerification:
    """Certified verdict of sigma(n) < e^gamma n log log n over [lo, hi].

    Every n with a certified violation lands in ``violations``; n whose
    comparison stayed indeterminate after the retry ladder land in
    ``unknowns`` (none are silently dropped).  hi may be at most 10^18,
    where sigma(n) still fits int64; beyond, DomainError.
    """
    if lo < 3:
        raise DomainError(f"range starts at {_int_text(lo)}; log log n needs "
                          "n >= 3")
    if hi < lo:
        raise DomainError(f"empty range [{_int_text(lo)}, {_int_text(hi)}]")
    if hi > _MAX_N:
        raise DomainError(f"range ends at {_int_text(hi)}, above the int64 "
                          "cap 10^18")
    result = RangeVerification(lo=lo, hi=hi, checked=hi - lo + 1)
    eg = constants(prec).exp_gamma
    # one buffer for every segment's bound, at the longest segment's size,
    # so no segment maps fresh pages
    buf = np.empty(min(_segment_length(hi), hi + 1 - lo))
    b = lo
    while b <= hi:
        end = min(b + _segment_length(b), 2 * b, hi + 1)
        root = math.isqrt(end - 1)
        # c <= e^gamma log log n for every n >= b: the lower end of the
        # enclosure at b, floored to a multiple of 2^-40 (exact in float64,
        # since c < 8 for b <= 10^18)
        llg = iv_log(iv_log(iv_from_int(b), prec), prec)
        c = math.ldexp(math.floor(iv_mul(eg, llg, prec).lo * (1 << 40)), -40)
        # n whose bound is below c certainly hold
        bound = _abundancy_bound(b, end - b, root, buf)
        off = np.flatnonzero(bound >= c)
        if off.size:
            ns = b + off
            sig = _sigma_sparse(ns, root)
            # and so do the n whose sigma(n)/n is below c
            for k in np.flatnonzero(_abundancy(sig, ns) >= c).tolist():
                rec = _classify(int(ns[k]), int(sig[k]), prec)
                if rec.verdict == "fails":
                    result.violations.append(rec)
                elif rec.verdict == "unknown":
                    result.unknowns.append(rec)
        b = end
    return result


def robin_exceptions(prec: int = DEFAULT_PRECISION_BITS) -> list[int]:
    """All n in [3, 5040] where the inequality fails."""
    res = verify_range(3, 5040, prec)
    if res.unknowns:
        raise ladder_exhausted(
            f"{len(res.unknowns)} indeterminate comparisons below 5041", prec)
    return [rec.n for rec in res.violations]


@dataclass(frozen=True)
class AbundanceRecord:
    n: int
    sigma: int

    @property
    def rho(self) -> Fraction:
        return Fraction(self.sigma, self.n)


# Their product passes 10^15 by 43, so the walk below never needs more.
_RECORD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def superabundant_up_to(limit: int) -> list[AbundanceRecord]:
    """All n <= limit with sigma(n)/n strictly above every smaller n's value.

    A depth-first walk lists every n = 2^e1 3^e2 5^e3 ... <= limit with
    e1 >= e2 >= ... and its exact sigma(n) = prod sigma(p^e); records are
    kept from that list, sorted, by exact integer cross-multiplication.
    That misses nothing (Alaoglu and Erdos, Trans. AMS 56, 1944).  With
    sigma(m)/m = prod_p f_p(a_p), f_p(a) = sum_{k=0..a} p^-k, let m' put
    the exponents of m, sorted decreasingly, on 2, 3, 5, ....  Then
    m' <= m and sigma(m')/m' >= sigma(m)/m, by two exchanges:

    - moving an exponent a from a prime q to a smaller prime p not
      dividing m lowers m and keeps the ratio from falling, as
      f_p(a) >= f_q(a);
    - for p < q and a < b, giving b to p and a to q instead of a to p and
      b to q lowers m, and f_p(b) f_q(a) >= f_p(a) f_q(b): the difference
      is f_q(a) D_p - f_p(a) D_q with D_x = x^-(a+1) f_x(b-a-1), which
      q sigma(q^a) >= p sigma(p^a) and f_p(b-a-1) >= f_q(b-a-1) make
      non-negative.

    So a record n equals its n' (else n' < n reaches its ratio) and is
    walked.  A record among the walked n beats every m < n, since the
    walked m' <= m has a ratio >= m's.
    Up to 10^15 that is 12,651 numbers and 88 records.
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {_int_text(limit)}")
    if limit > 10**15:
        raise DomainError(f"limit {_int_text(limit)} above 10^15, the largest "
                          "supported")
    found = [(1, 1)]  # (n, sigma(n))

    def walk(i: int, n: int, sigma: int, top: int) -> None:
        # extend n, over the first i primes, by p_{i+1}^e for 1 <= e <= top
        p = _RECORD_PRIMES[i]
        e, m, term = 1, n * p, p + 1  # m = n p^e, term = sigma(p^e)
        while e <= top and m <= limit:
            found.append((m, sigma * term))
            walk(i + 1, m, sigma * term, e)
            e, m, term = e + 1, m * p, term * p + 1

    walk(0, 1, 1, limit)
    records: list[AbundanceRecord] = []
    best_num, best_den = 0, 1
    for n, s in sorted(found):
        if s * best_den > best_num * n:
            records.append(AbundanceRecord(n, s))
            best_num, best_den = s, n
    return records


EpsilonLike = Union[int, float, str, Fraction, Decimal]


def _eps_text(eps: Fraction) -> str:
    """eps as str() writes it, each side through _int_text."""
    text = _int_text(eps.numerator)
    return text if eps.denominator == 1 else f"{text}/{_int_text(eps.denominator)}"


def _ca_at_least(p: int, e: int, eps: Fraction, prec: int) -> bool:
    """a(p) >= e for e >= 1, where a(p) is the CA exponent at eps.

    With u = p^eps, a(p) >= e means (p u - 1)/(u - 1) >= p^(e+1), that is
    u <= F = (p^(e+1) - 1)/(p^(e+1) - p).  Equality never holds: F is a
    rational strictly between 1 and 2, while p^eps is an integer or
    irrational.  So one certified comparison p^eps < F decides it.
    power_below rounds F to the working precision before its log; where
    that leaves it undecided, eps log p is placed against the exact bracket
    x/(1 + x) < log F < x, x = F - 1, at escalating precision."""
    q = p ** (e + 1)
    below = power_below(p, eps, Fraction(q - 1, q - p), 1, prec)
    if below is None:
        def bracket(work: int) -> Optional[bool]:
            lhs = iv_mul(eps, iv_log_rational(p, work), work)
            if iv_compare(lhs, Fraction(p - 1, q - 1), work) is Comparison.CERTAINLY_LESS:
                return True  # below x/(1 + x)
            if iv_compare(lhs, Fraction(p - 1, q - p), work) is Comparison.CERTAINLY_GREATER:
                return False  # above x
            return None

        below = escalate(bracket, prec)
    if below is None:
        raise ladder_exhausted(f"exponent of {p} straddles a power boundary "
                               f"at eps={_eps_text(eps)}", prec)
    return below


def _ca_exponent_of_2(eps: Fraction, prec: int) -> int:
    """a(2) at eps in O(log a(2)) probes: e is doubled while a(2) >= e,
    then the largest e below the first failing double is bisected."""
    if not _ca_at_least(2, 1, eps, prec):
        return 0
    top = 1  # a(2) >= top
    while _ca_at_least(2, 2 * top, eps, prec):
        top *= 2
    return top + bisect.bisect_left(
        range(top + 1, 2 * top), True,
        key=lambda e: not _ca_at_least(2, e, eps, prec))


def ca_candidate(eps: EpsilonLike, t: PrimeTable,
                 prec: int = DEFAULT_PRECISION_BITS) -> CandidateFactorization:
    """The candidate whose exponent at each prime p is
    a(p) = floor(log((p^(1+eps)-1)/(p^eps-1))/log p) - 1.

    Each exponent is decided by _ca_at_least probes: a(2) by doubling e,
    then bisecting; exponents are non-increasing in p, so every lower
    level is located by binary search over the prime table.  Raises
    DomainError when the vector is empty (eps too large) and
    TableTooSmallError when the table cannot bracket the last prime with
    exponent 1.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {_eps_text(eps)}")
    a2 = _ca_exponent_of_2(eps, prec)
    if a2 < 1:
        raise DomainError(
            f"epsilon {_eps_text(eps)} gives an empty exponent vector (a(2) = {a2})"
        )
    if _ca_at_least(t.nth_prime(len(t)), 1, eps, prec):
        raise TableTooSmallError(
            f"every prime up to {t.limit} has a positive exponent at "
            f"eps={_eps_text(eps)}; enlarge the table",
            needed=t.limit + 1,
        )

    def last_index_with(e: int, lo: int, hi: int) -> int:
        # largest i in [lo, hi] with exponent(p_i) >= e; exponent(p_lo) >= e,
        # and walking down from hi the exponent first reaches e there
        return hi - bisect.bisect_left(
            range(hi, lo, -1), True,
            key=lambda i: _ca_at_least(t.nth_prime(i), e, eps, prec))

    pairs = []
    prev_boundary = 0
    for e in range(a2, 0, -1):
        boundary = last_index_with(e, max(prev_boundary, 1), len(t))
        if boundary > prev_boundary:
            pairs.append((e, boundary - prev_boundary))
            prev_boundary = boundary
    return CandidateFactorization.from_runs(pairs)


def ca_sweep(count: int, t: PrimeTable, prec: int = DEFAULT_PRECISION_BITS,
             max_steps: int = 2000) -> list[CandidateFactorization]:
    """First ``count`` distinct candidates along the geometric epsilon grid
    (9/10)^j, j = 0, 1, 2, ...  (decreasing epsilon, growing candidates).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {_int_text(count)}")
    ratio = Fraction(9, 10)
    out: list[CandidateFactorization] = []
    seen = set()
    eps = Fraction(1)
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
