"""Certified interval arithmetic on arbitrary-precision binary endpoints.

Every ``IntervalScalar`` is an enclosure [lo, hi] of an exact real number.
All operations round endpoints outward, so the exact value of an expression
always stays inside the computed interval, and comparisons issue a strict
verdict only when the enclosures are disjoint.  There are two order
questions: ``iv_certainly_less`` answers False for any overlap, for guards
where "not certain" takes the safe branch; ``iv_less`` decides a verdict
and raises PrecisionError when neither order is certain.  Endpoints are
raw mpmath mpf tuples (sign, mantissa, exponent, bitcount); the exponent
is an unbounded Python int, so no operation here can overflow to
infinity.

Sums, differences and the unary ops (log, exp, sqrt, re-rounding) call
their mpf function once per endpoint, rounding lo down and hi up, which is
all libmpi's interval functions do for them.  Products and quotients do
the same when both lower ends are positive, the only case the hot paths
form; every other sign case goes through libmpi's case analysis
(``mpi_mul``, ``mpi_div``).  Either way every result is validated, and the
bits are those libmpi gives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, Optional, TypeVar, Union

from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_int,
    from_man_exp,
    from_rational,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_euler,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_sqrt,
    mpf_sub,
    to_rational,
    to_str,
)
from mpmath.libmp import libmpi as _mpi

from .errors import DomainError, PrecisionError

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64
# Precision doublings tried by escalate after the first attempt.
_MAX_ESCALATIONS = 4
# Above this bit count, p^e is not formed exactly; logarithms are compared.
_EXACT_POW_BITS = 1 << 14

# Largest fractional bit count serialized as an exact decimal string.  An
# endpoint with a smaller binary exponent has no bounded decimal expansion
# worth emitting; round outward to working precision before serializing.
_MAX_SERIAL_FRACTION_BITS = 1 << 16

_ROUND_DOWN = "f"
_ROUND_UP = "c"

_SPECIALS = (finf, fninf, fnan)


def _cmp(s: tuple, t: tuple) -> int:
    """mpf_cmp(s, t), exactly, for any raw tuples.

    Two same-sign values with nonzero mantissas and one exponent compare
    as their mantissas, as mpf_cmp compares them after its own checks.
    mpf_cmp settles two same-sign values whose leading bits sit at the
    same position with a rounded subtraction.  When both are finite and
    normalized (odd mantissa, bit count = mantissa bit length) and their
    exponents differ, shifting one mantissa by the exponent gap, which is
    at most the other's bit count, decides it with one integer comparison.
    Every other case goes to mpf_cmp, which must also answer for tuples
    that are not normalized."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if sexp == texp:
        if ssign == tsign and sman and tman:
            if sman == tman:
                return 0
            return -1 if (sman > tman) == ssign else 1
    elif (sbc + sexp == tbc + texp and ssign == tsign
            and sman > 0 and tman > 0 and sman & tman & 1
            and sbc == sman.bit_length() and tbc == tman.bit_length()):
        if sexp > texp:
            above = (sman << (sexp - texp)) > tman
        else:
            above = sman > (tman << (texp - sexp))
        return -1 if above == ssign else 1
    return mpf_cmp(s, t)


def _validate(lo: tuple, hi: tuple) -> None:
    """Reject non-finite or reversed endpoints.  Every special value has a
    zero mantissa, so only those tuples are looked up; mpf_cmp(x, x) is 0
    for any x, so identical endpoints skip the order test."""
    if (not lo[1] and lo in _SPECIALS) or (not hi[1] and hi in _SPECIALS):
        raise DomainError("non-finite interval endpoint")
    if lo is not hi and _cmp(lo, hi) > 0:
        raise DomainError("interval endpoints out of order")


@dataclass(frozen=True, slots=True)
class IntervalScalar:
    """Enclosure of one real number; lo <= hi, both finite dyadic rationals."""

    _lo: tuple
    _hi: tuple

    def __post_init__(self):
        _validate(self._lo, self._hi)

    @property
    def lo(self) -> Fraction:
        p, q = to_rational(self._lo)
        return Fraction(int(p), int(q))

    @property
    def hi(self) -> Fraction:
        p, q = to_rational(self._hi)
        return Fraction(int(p), int(q))

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value: Union[int, Fraction, "IntervalScalar"]) -> bool:
        if isinstance(value, IntervalScalar):
            return self.lo <= value.lo and value.hi <= self.hi
        value = Fraction(value)
        return self.lo <= value <= self.hi

    def __repr__(self) -> str:
        return "IntervalScalar[%s, %s]" % (
            to_str(self._lo, 24),
            to_str(self._hi, 24),
        )


_new_interval = object.__new__
_set_lo = IntervalScalar._lo.__set__
_set_hi = IntervalScalar._hi.__set__


def _iv(lo: tuple, hi: tuple) -> IntervalScalar:
    """IntervalScalar(lo, hi) without the frozen-dataclass __init__: the
    same validation, then the slots are filled directly."""
    _validate(lo, hi)
    a = _new_interval(IntervalScalar)
    _set_lo(a, lo)
    _set_hi(a, hi)
    return a


IntervalLike = Union[IntervalScalar, int, Fraction, Decimal]
T = TypeVar("T")


def iv_from_int(n: int) -> IntervalScalar:
    """Exact degenerate enclosure of a Python int (no rounding)."""
    t = from_int(n)
    return _iv(t, t)


def iv_from_int_rounded(n: int, prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Enclosure of an int rounded outward to ``prec`` mantissa bits.

    Use for huge integers whose exact mantissa would slow later operations.
    """
    return _iv(from_int(n, prec, _ROUND_DOWN), from_int(n, prec, _ROUND_UP))


def iv_make(lo: Union[int, Fraction], hi: Union[int, Fraction],
            prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Enclosure [lo, hi] from exact rational endpoints (outward-rounded)."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise DomainError("interval endpoints out of order")
    return _iv(
        from_rational(lo.numerator, lo.denominator, prec, _ROUND_DOWN),
        from_rational(hi.numerator, hi.denominator, prec, _ROUND_UP),
    )


def _endpoints(x: IntervalLike, prec: int) -> tuple[tuple, tuple]:
    """(lo, hi) of x, with no interval built for an int, a Fraction or a
    Decimal: an int is its own exact endpoint, and a Fraction or a Decimal
    is rounded outward to ``prec`` bits."""
    if isinstance(x, IntervalScalar):
        return x._lo, x._hi
    if isinstance(x, int):
        t = from_int(x)
        return t, t
    if isinstance(x, Fraction):
        return (from_rational(x.numerator, x.denominator, prec, _ROUND_DOWN),
                from_rational(x.numerator, x.denominator, prec, _ROUND_UP))
    if isinstance(x, Decimal):
        return _decimal_endpoints(x, prec)
    raise TypeError(f"cannot treat {type(x).__name__} as an interval")


@functools.lru_cache(maxsize=64)
def _decimal_endpoints(x: Decimal, prec: int) -> tuple[tuple, tuple]:
    """A Decimal literal's endpoints, rounded once per (literal, prec)."""
    return _endpoints(Fraction(x), prec)


def iv_add(a: IntervalLike, b: IntervalLike, prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    a_lo, a_hi = _endpoints(a, prec)
    b_lo, b_hi = _endpoints(b, prec)
    return _iv(mpf_add(a_lo, b_lo, prec, _ROUND_DOWN),
               mpf_add(a_hi, b_hi, prec, _ROUND_UP))


def iv_sub(a: IntervalLike, b: IntervalLike, prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    a_lo, a_hi = _endpoints(a, prec)
    b_lo, b_hi = _endpoints(b, prec)
    return _iv(mpf_sub(a_lo, b_hi, prec, _ROUND_DOWN),
               mpf_sub(a_hi, b_lo, prec, _ROUND_UP))


# An endpoint x is a raw tuple whose x[0] is the sign bit and x[1] the
# mantissa, 0 for a zero: x > 0 exactly when ``not x[0] and x[1]``, and
# x < 0 exactly when ``x[0] and x[1]``.  mul and div with positive lower
# ends round two endpoint products or quotients, as libmpi's own case for
# them does; every other sign case, zero ends included, keeps libmpi's case
# analysis.

def iv_mul(a: IntervalLike, b: IntervalLike, prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    a_lo, a_hi = _endpoints(a, prec)
    b_lo, b_hi = _endpoints(b, prec)
    if a_lo[0] or b_lo[0] or not (a_lo[1] and b_lo[1]):
        return _iv(*_mpi.mpi_mul((a_lo, a_hi), (b_lo, b_hi), prec))
    return _iv(mpf_mul(a_lo, b_lo, prec, _ROUND_DOWN),
               mpf_mul(a_hi, b_hi, prec, _ROUND_UP))


def iv_div(a: IntervalLike, b: IntervalLike, prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    a_lo, a_hi = _endpoints(a, prec)
    b_lo, b_hi = _endpoints(b, prec)
    if b_lo[0] or not b_lo[1]:  # b_lo <= 0
        if not (b_hi[0] and b_hi[1]):  # b_hi >= 0
            raise DomainError("division by an interval containing zero")
    elif not a_lo[0] and a_lo[1]:
        return _iv(mpf_div(a_lo, b_hi, prec, _ROUND_DOWN),
                   mpf_div(a_hi, b_lo, prec, _ROUND_UP))
    return _iv(*_mpi.mpi_div((a_lo, a_hi), (b_lo, b_hi), prec))


def iv_neg(a: IntervalScalar) -> IntervalScalar:
    return _iv(mpf_neg(a._hi), mpf_neg(a._lo))


def iv_log(a: IntervalLike, prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    lo, hi = _endpoints(a, prec)
    if lo[0] or not lo[1]:
        raise DomainError("log of an interval not certainly positive")
    return _iv(mpf_log(lo, prec, _ROUND_DOWN), mpf_log(hi, prec, _ROUND_UP))


@functools.lru_cache(maxsize=1 << 12)
def iv_log_rational(x: Union[int, Fraction],
                    prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """iv_log(x, prec) for an int or Fraction x, formed once per (x, prec)
    and kept while it stays among the 4096 most recently used: for the
    logs of primes and other small ints that checks and normalize steps
    ask for again and again, and of the rationals that CA exponent probes
    compare p^eps with, not for one-off arguments."""
    return iv_log(x, prec)


def iv_exp(a: IntervalLike, prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    lo, hi = _endpoints(a, prec)
    return _iv(mpf_exp(lo, prec, _ROUND_DOWN), mpf_exp(hi, prec, _ROUND_UP))


def iv_sqrt(a: IntervalLike, prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    lo, hi = _endpoints(a, prec)
    if lo[0] and lo[1]:
        raise DomainError("sqrt of an interval not certainly nonnegative")
    return _iv(mpf_sqrt(lo, prec, _ROUND_DOWN), mpf_sqrt(hi, prec, _ROUND_UP))


def iv_round(a: IntervalScalar, prec: int) -> IntervalScalar:
    """Outward re-rounding of both endpoints to ``prec`` mantissa bits."""
    return _iv(mpf_pos(a._lo, prec, _ROUND_DOWN), mpf_pos(a._hi, prec, _ROUND_UP))


def iv_certainly_less(a: IntervalLike, b: IntervalLike,
                      prec: int = DEFAULT_PRECISION_BITS) -> bool:
    """True only when a's enclosure lies strictly below b's.  Overlapping
    enclosures, shared endpoints included, give False: for guards and
    early exits, where "not certain" picks the safe branch."""
    return _cmp(_endpoints(a, prec)[1], _endpoints(b, prec)[0]) < 0


def iv_less(a: IntervalLike, b: IntervalLike, reason: str,
            witness: Optional[dict] = None,
            prec: int = DEFAULT_PRECISION_BITS) -> bool:
    """Certified a < b, for verdicts: True when a lies certainly below b,
    False when b lies certainly below a.  Overlapping enclosures, shared
    endpoints included, leave it undecided: PrecisionError(reason,
    **witness)."""
    if iv_certainly_less(a, b, prec):
        return True
    if iv_certainly_less(b, a, prec):
        return False
    raise PrecisionError(reason, **(witness or {}))


def iv_dyadic(a: IntervalScalar) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both endpoints of a exactly, each as (m, s) with value m / 2^s and
    s >= 0, for comparisons in integer arithmetic."""
    out = []
    for sign, man, exp, _bc in (a._lo, a._hi):
        m = -man if sign else man
        out.append((m << exp, 0) if exp >= 0 else (m, -exp))
    return out[0], out[1]


def escalate(attempt: Callable[[int], T], prec: int) -> T:
    """The result of attempt(p) at the first rung p = prec, 2 prec, ...,
    prec * 2^_MAX_ESCALATIONS that raises no PrecisionError.  When every
    rung raises, the top rung's error is re-raised, suggesting
    ladder_suggestion(prec)."""
    for k in range(_MAX_ESCALATIONS + 1):
        try:
            return attempt(prec << k)
        except PrecisionError as e:
            if k == _MAX_ESCALATIONS:
                e.suggested_precision_bits = ladder_suggestion(prec)
                raise


def ladder_suggestion(prec: int) -> int:
    """The precision to retry at after escalate from ``prec`` stayed
    indeterminate at every rung: the doubling above the top rung."""
    return prec << (_MAX_ESCALATIONS + 1)


def _pow_bits(p: int, e: int) -> int:
    """Bit-length bound of p^e."""
    return e * p.bit_length() + 1


def iv_floor(a: IntervalScalar, reason: str) -> int:
    """Common floor of all values in the enclosure; PrecisionError(reason)
    when it straddles an integer boundary."""
    import math

    lo_floor = math.floor(a.lo)
    if lo_floor != math.floor(a.hi):
        raise PrecisionError(reason)
    return lo_floor


def _mpf_to_decimal_str(t: tuple) -> str:
    """Exact decimal expansion of a finite dyadic mpf value.  Digits go
    through Decimal, which, unlike str(int), has no digit limit."""
    sign, man, exp, _bc = t
    man = int(man)
    if man == 0:
        return "0"
    if sign:
        man = -man
    exp = int(exp)
    if exp >= 0:
        return str(Decimal(man << exp))
    k = -exp
    if k > _MAX_SERIAL_FRACTION_BITS:
        raise DomainError(
            "endpoint too fine for exact decimal serialization; "
            "iv_round to working precision first"
        )
    digits = man * 5**k
    neg = digits < 0
    s = str(Decimal(abs(digits))).rjust(k + 1, "0")
    whole, frac = s[:-k], s[-k:]
    frac = frac.rstrip("0") or "0"
    return ("-" if neg else "") + whole + "." + frac


def _decimal_str_to_mpf(s: str, rnd: str, prec: int) -> tuple:
    """Decimal, unlike Fraction(str), reads an endpoint of any length."""
    try:
        sign, digits, exp = Decimal(s).as_tuple()
        if abs(exp) > _MAX_SERIAL_FRACTION_BITS:  # TypeError: inf or NaN
            raise InvalidOperation
    except (InvalidOperation, TypeError) as e:
        raise DomainError(f"interval endpoint is not a decimal: {s!r}") from e
    x = Fraction(int(Decimal((sign, digits, max(exp, 0)))), 10 ** max(-exp, 0))
    den = x.denominator
    # Dyadic decimals (the ones we emit) convert exactly.
    if den & (den - 1) == 0:
        return from_man_exp(x.numerator, -(den.bit_length() - 1))
    return from_rational(x.numerator, x.denominator, prec, rnd)


def interval_to_json(a: IntervalScalar) -> dict:
    """{"lo": str, "hi": str} with exact decimal endpoint expansions."""
    return {"lo": _mpf_to_decimal_str(a._lo), "hi": _mpf_to_decimal_str(a._hi)}


def interval_from_json(obj: dict, prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Inverse of interval_to_json.  Endpoints we emitted parse exactly;
    foreign non-dyadic decimals are rounded outward."""
    try:
        lo_s, hi_s = obj["lo"], obj["hi"]
    except (TypeError, KeyError) as e:
        raise DomainError(f"interval object missing endpoint: {e}") from e
    return _iv(
        _decimal_str_to_mpf(lo_s, _ROUND_DOWN, prec),
        _decimal_str_to_mpf(hi_s, _ROUND_UP, prec),
    )


@dataclass(frozen=True)
class Constants:
    """Frozen numeric constants at one working precision.

    The transcendental members are certified enclosures; the decimal members
    are exact literals, which the interval ops round outward at their own
    precision.
    """

    precision_bits: int
    gamma: IntervalScalar
    exp_gamma: IntervalScalar
    exp_neg_gamma: IntervalScalar
    ln10: IntervalScalar
    # n must exceed 10^(10^13.099); checked against log10(log10 n).
    size_floor_log10_log10: Decimal = Decimal("13.099")
    # log n <= p_r * (1 + c / log p_r) for the least counterexample.
    log_window_slack: Decimal = Decimal("0.005589")
    # Alternative one-sided form: p_r > (log n)(1 - c' / log log n).
    log_window_slack_alt: Decimal = Decimal("0.005587")
    # p_s must lie in (lower * sqrt(p_r), upper * sqrt(p_r)).
    s_window_upper: Decimal = Decimal("1.414342")
    s_window_lower: Decimal = Decimal("0.999999")
    # The least counterexample has more than this many prime factors.
    min_prime_count: int = 969672728


@functools.lru_cache(maxsize=None)
def constants(prec: int = DEFAULT_PRECISION_BITS) -> Constants:
    """The constants at ``prec`` bits, formed once per precision."""
    g = _iv(mpf_euler(prec, _ROUND_DOWN), mpf_euler(prec, _ROUND_UP))
    return Constants(
        precision_bits=prec,
        gamma=g,
        exp_gamma=iv_exp(g, prec),
        exp_neg_gamma=iv_exp(iv_neg(g), prec),
        ln10=iv_log_rational(10, prec),
    )
