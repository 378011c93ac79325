"""Independent oracles for the tests.

Exact rho(n) = sigma(n)/n and n/phi(n) as Fractions, multiplied out prime
by prime, share no code with the certified aggregates of
``robinaudit.factored`` (no cells, no cached products).  sigma by divisor
pairs shares no code with the multiplicative sieve of
``robinaudit.generators.sigma_range``."""

import math
from fractions import Fraction

import numpy as np


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
