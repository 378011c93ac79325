"""Exact rho(n) = sigma(n)/n and n/phi(n) as Fractions, multiplied out
prime by prime.  They share no code with the certified aggregates of
``robinaudit.factored`` (no cells, no cached products), so tests can use
them as independent oracles."""

from fractions import Fraction


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
