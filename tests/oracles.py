"""Independent oracles for the tests.

Exact rho(n) = sigma(n)/n, n/phi(n) and their quotient, the density
product of B6, as Fractions, multiplied out prime by prime, share no code
with the certified aggregates of ``robinaudit.factored`` (no cells, no
cached products).  sigma by divisor
pairs shares no code with the exact sigma of ``robinaudit.generators``
(the survivors' prime powers in verify_range, the exponent walk of
superabundant_up_to).  The upper window bound U and the
colossally abundant exponent are restated from their definitions, with no
code from ``robinaudit.audit`` or ``robinaudit.generators``; so is the shape
rule B2, tried at every pair of indices instead of at run corners.  The interval
endpoint rule is stated in its plain form, with no code from
``robinaudit.intervals``.  ``upper_bound_rounded`` is the exception: it
keeps the bracket walk that compared p^(k+1) with a rounded product
(k + 1) log n, as the reference the exact walk must agree with wherever
the rounded one decided."""

import math
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.libmp import finf, fnan, fninf, mpf_cmp

from robinaudit.errors import DomainError, InvariantError, PrecisionError
from robinaudit.intervals import iv_mul


def sigma_divisor_pairs(lo: int, hi: int) -> np.ndarray:
    """sigma(n) for n in [lo, hi] inclusive, exact, as int64.

    Divisor-pair accumulation: every d <= sqrt(m) contributes d + m/d,
    and perfect squares subtract the double-counted sqrt(m).
    """
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


def rho_exact(c, t) -> Fraction:
    num = den = 1
    for start, end, e in c.run_bounds():
        if e == 0:
            continue
        for p in t.slice(start, end).tolist():
            num *= p ** (e + 1) - 1
            den *= p**e * (p - 1)
    return Fraction(num, den)


def n_over_phi_exact(c, t) -> Fraction:
    num = den = 1
    for start, end, e in c.run_bounds():
        if e == 0:
            continue
        for p in t.slice(start, end).tolist():
            num *= p
            den *= p - 1
    return Fraction(num, den)


def density_product_exact(c, t, upto=None) -> Fraction:
    """rho(n) / (n/phi(n)) = Pi_{p | n} (1 - p^-(a_p+1)), prime by prime;
    with ``upto``, only over the primes p_1..p_upto."""
    out = Fraction(1)
    for start, end, e in c.run_bounds():
        if upto is not None:
            end = min(end, upto)
        if e == 0 or start > end:
            continue
        for p in t.slice(start, end).tolist():
            out *= 1 - Fraction(1, p ** (e + 1))
    return out


def u_oracle(x: int, p: int) -> int:
    """U(p) when log n = x exactly: the largest k with p^k <= k x, found by
    trying every k in exact integers (p < x, x <= 10^12)."""
    return max(k for k in range(1, 100) if p**k <= k * x)


def b2_violations(exps: list, primes: list) -> dict:
    """{(i, j): floor(a_i log p_i / log p_j)} over every pair i < j of
    positions with positive exponents where a_j differs from that floor by
    more than 1; the floor is the largest m with p_j^m <= p_i^(a_i), found
    in exact integers."""
    out = {}
    for i in range(1, len(exps) + 1):
        if exps[i - 1] == 0:
            continue
        power = primes[i - 1] ** exps[i - 1]
        for j in range(i + 1, len(exps) + 1):
            if exps[j - 1] == 0:
                continue
            m = 0
            while primes[j - 1] ** (m + 1) <= power:
                m += 1
            if abs(exps[j - 1] - m) > 1:
                out[(i, j)] = m
    return out


def upper_bound_rounded(lg, p: int, prec: int) -> int:
    """U(p) by the rounded bracket walk: the first k with p^(k+1) certainly
    above the enclosure iv_mul(k + 1, log n) at ``prec`` bits; raises
    PrecisionError when they overlap.  Orders are read from the exact
    endpoints, not from the interval layer's order tests."""
    if not 2 < lg.lo:
        raise DomainError("upper window bounds need log n certainly > 2")
    if not p < lg.lo:
        raise DomainError(f"bracket undefined: {p} not certainly below log n")
    power = p
    for k in range(1, 200):
        power *= p
        bound = iv_mul(k + 1, lg, prec)
        if power > bound.hi:
            return k
        if power >= bound.lo:
            raise PrecisionError(f"{p}^{k + 1} vs {k + 1} log n indeterminate")
    raise InvariantError(f"bracket walk for {p} did not terminate")


def ca_exponent_oracle(p: int, eps: Fraction, bits: int = 1024) -> int:
    """floor(log((p^(1+eps) - 1)/(p^eps - 1)) / log p) - 1, the published
    colossally abundant exponent, in mpmath at ``bits`` bits."""
    with mpmath.workprec(bits):
        e = mpmath.mpf(eps.numerator) / eps.denominator
        x = (mpmath.power(p, 1 + e) - 1) / (mpmath.power(p, e) - 1)
        return int(mpmath.floor(mpmath.log(x) / mpmath.log(p))) - 1


def eps_inside_ca_bracket(e: int, side: int) -> Fraction:
    """An eps with eps log 2 strictly inside x/(1 + x) < log F < x, where
    F = 1 + x, x = 1/(2^(e+1) - 2) is the rational of the probe a(2) >= e:
    halfway between log F and x/(1 + x) for side < 0, between log F and x
    for side > 0, to about e + 100 bits."""
    x = Fraction(1, 2 ** (e + 1) - 2)
    end = x / (1 + x) if side < 0 else x
    with mpmath.workprec(8 * e):
        log_f = mpmath.log1p(mpmath.mpf(x.numerator) / x.denominator)
        target = (log_f + mpmath.mpf(end.numerator) / end.denominator) / 2
        ratio = target / mpmath.log(2)
    with mpmath.workprec(e + 100):
        man, exp = (+ratio).man_exp
    return Fraction(man) * Fraction(2) ** exp


def check_interval_endpoints(lo: tuple, hi: tuple) -> None:
    """Raise DomainError unless raw mpf endpoints lo, hi make an interval:
    each is looked up among the non-finite values, then mpf_cmp(lo, hi)
    must not be positive."""
    for t in (lo, hi):
        if t in (finf, fninf, fnan):
            raise DomainError("non-finite interval endpoint")
    if mpf_cmp(lo, hi) > 0:
        raise DomainError("interval endpoints out of order")
