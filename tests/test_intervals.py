"""Interval layer: containment, certified compares, rounding direction."""

import json
import random
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fnan, fninf, from_int, from_rational, fzero, mpf_cmp
from mpmath.libmp import libmpi
from oracles import check_interval_endpoints

from robinaudit.errors import DomainError
from robinaudit.intervals import (
    Comparison,
    IntervalScalar,
    _cmp,
    _iv,
    constants,
    escalate,
    interval_from_json,
    interval_to_json,
    iv_add,
    iv_compare,
    iv_div,
    iv_dyadic,
    iv_exp,
    iv_floor,
    iv_from_decimal,
    iv_from_fraction,
    iv_from_int,
    iv_from_int_rounded,
    iv_log,
    iv_make,
    iv_mul,
    iv_neg,
    iv_round,
    iv_sqrt,
    iv_sub,
    ladder_exhausted,
    power_below,
)

# Frozen oracles (50+ digit evaluations, computed independently before the
# implementation and pinned here as exact decimal literals).
LN_5040 = Fraction(
    "8.52516136106541430016553103634712505075966773693689883032415")
LN_LN_5040 = Fraction(
    "2.14302195097466127549399605218009182140142357587012829020956")
SQRT_200 = Fraction(
    "14.1421356237309504880168872420969807856967187537694807317668")
GAMMA = Fraction(
    "0.577215664901532860606512090082402431042159335939923598805767")
EXP_GAMMA = Fraction(
    "1.78107241799019798523650410310717954916964521430343020535767")


def test_point_interval_is_exact():
    a = iv_from_int(5)
    assert a.lo == a.hi == 5
    assert a.width() == 0


def test_add_encloses_exact_sum():
    s = iv_add(iv_from_int(1), iv_from_int(2))
    assert s.contains(3)
    assert s.width() == 0  # small ints add exactly


def test_fraction_enclosure_contains_value():
    x = Fraction(1, 3)
    a = iv_from_fraction(x)
    assert a.lo < x < a.hi
    assert a.width() > 0
    assert a.width() < Fraction(1, 10**30)


def test_log_oracle_5040():
    a = iv_log(iv_from_int(5040))
    assert a.contains(LN_5040)
    assert a.width() < Fraction(1, 10**30)
    b = iv_log(a)
    assert b.contains(LN_LN_5040)


def test_sqrt_encloses_oracle():
    assert iv_sqrt(iv_from_int(200)).contains(SQRT_200)


def test_constants_enclose_published_digits():
    c = constants()
    assert c.gamma.contains(GAMMA)
    assert c.exp_gamma.contains(EXP_GAMMA)
    assert c.gamma.width() <= Fraction(1, 10**30)
    assert c.exp_gamma.width() <= Fraction(1, 10**30)
    assert c.size_floor_log10_log10 == Decimal("13.099")
    assert c.min_prime_count == 969672728


def test_decimal_constant_outward_rounding():
    a = iv_from_decimal("0.005589")
    x = Fraction("0.005589")
    assert a.lo < x < a.hi  # not representable in binary, so strictly outward


def test_compare_disjoint_and_overlap():
    assert iv_compare(iv_from_int(3), iv_from_int(4)) is Comparison.CERTAINLY_LESS
    assert iv_compare(iv_from_int(4), iv_from_int(3)) is Comparison.CERTAINLY_GREATER
    a = iv_make(Fraction(1), Fraction(3))
    b = iv_make(Fraction(2), Fraction(4))
    assert iv_compare(a, b) is Comparison.OVERLAPPING
    # shared endpoint is not a strict verdict
    assert iv_compare(iv_from_int(3), iv_make(3, 4)) is Comparison.OVERLAPPING


def test_floor_determinate_and_straddling():
    assert iv_floor(iv_log(iv_from_int(8))) == 2  # ln 8 = 2.079...
    assert iv_floor(iv_make(Fraction(29, 10), Fraction(31, 10))) is None
    assert iv_floor(iv_from_int(7)) == 7


def test_escalate_doubles_until_decided():
    tried = []

    def decided_at(bits):
        def attempt(p):
            tried.append(p)
            return False if p >= bits else None  # a falsy result still ends it
        return attempt

    assert escalate(decided_at(512), 128) is False
    assert tried == [128, 256, 512]
    tried.clear()
    assert escalate(decided_at(10**9), 128) is None
    assert tried == [128, 256, 512, 1024, 2048]
    # the error names the last precision tried and suggests the next one
    err = ladder_exhausted("undecided up to {top} bits", 128)
    assert str(err) == "undecided up to 2048 bits"
    assert err.suggested_precision_bits == 4096


def test_power_below_exact_and_by_logarithms():
    # integer exponents within the exact cut: exact, and equality is not below
    assert power_below(2, 10, 1025, 1) is True
    assert power_below(2, 10, 1024, 1) is False
    # exponents past the cut compare a log x with b log y
    assert power_below(2, 3 * 10**6, 8, 10**6 + 1) is True
    assert power_below(8, 10**6 + 1, 2, 3 * 10**6) is False
    assert power_below(8, 10**6, 2, 3 * 10**6) is None  # equal powers
    assert power_below(2, Fraction(1, 2), Fraction(3, 2), 1) is True


def test_division_by_zero_interval_rejected():
    with pytest.raises(DomainError):
        iv_div(iv_from_int(1), iv_make(-1, 1))


def test_log_of_nonpositive_rejected():
    with pytest.raises(DomainError):
        iv_log(iv_make(0, 2))
    with pytest.raises(DomainError):
        iv_log(iv_from_int(-3))


def test_endpoint_order_enforced():
    with pytest.raises(DomainError):
        iv_make(2, 1)


# Raw libmp endpoints: the specials and zero, zero-mantissa tuples that
# are none of them, unnormalized tuples, and well-formed values.
_RAW_ENDPOINT = st.one_of(
    st.sampled_from([finf, fninf, fnan, fzero]),
    st.tuples(st.integers(0, 1), st.just(0), st.integers(-1000, 1000),
              st.integers(-5, 5)),
    st.tuples(st.integers(0, 1), st.integers(0, 2**80),
              st.integers(-300, 300), st.integers(-3, 90)),
    st.builds(from_int, st.integers(-10**30, 10**30)),
    st.builds(lambda n, d: from_rational(n, d, 64, "f"),
              st.integers(-10**9, 10**9), st.integers(1, 10**9)),
)


def _outcome(make, lo, hi) -> str:
    try:
        make(lo, hi)
    except DomainError:
        return "rejected"
    except Exception as e:  # any other error must match too
        return type(e).__name__
    return "accepted"


@settings(max_examples=1000, deadline=None)
@given(lo=_RAW_ENDPOINT, hi=_RAW_ENDPOINT, same=st.booleans())
def test_constructors_reject_what_the_endpoint_rule_rejects(lo, hi, same):
    if same:
        hi = lo  # one object as both endpoints
    expect = _outcome(check_interval_endpoints, lo, hi)
    assert _outcome(IntervalScalar, lo, hi) == expect
    assert _outcome(_iv, lo, hi) == expect
    if expect != "accepted":
        return
    a, b = IntervalScalar(lo, hi), _iv(lo, hi)
    assert a == b and hash(a) == hash(b)
    assert (b._lo, b._hi) == (lo, hi)
    with pytest.raises(FrozenInstanceError):
        b._lo = hi


def _equal_forms(sign, man, exp, shift):
    """One value twice: normalized, and with ``shift`` trailing zero bits
    moved into the mantissa (the bit count still matches)."""
    wide = man << shift
    return ((sign, wide, exp - shift, wide.bit_length()),
            (sign, man, exp, man.bit_length()))


def _same_top_bit(sign, top, bc1, bc2, m1, m2):
    """Two normalized values whose leading bits sit at position ``top``."""
    def make(bc, m):
        man = ((1 << (bc - 1)) | (m % (1 << (bc - 1)))) | 1 if bc > 1 else 1
        return (sign, man, top - bc, bc)
    return make(bc1, m1), make(bc2, m2)


def _same_exponent(s1, s2, m1, m2, exp):
    """Two values at one exponent, normalized or not, zero mantissas
    included."""
    return (s1, m1, exp, m1.bit_length()), (s2, m2, exp, m2.bit_length())


_CMP_PAIR = st.one_of(
    st.tuples(_RAW_ENDPOINT, _RAW_ENDPOINT),
    st.builds(_same_exponent, st.integers(0, 1), st.integers(0, 1),
              st.integers(0, 2**140), st.integers(0, 2**140),
              st.integers(-300, 300)),
    st.builds(_equal_forms, st.integers(0, 1),
              st.integers(0, 2**64).map(lambda m: m | 1),
              st.integers(-300, 300), st.integers(1, 80)),
    st.builds(_same_top_bit, st.integers(0, 1), st.integers(-300, 300),
              st.integers(1, 140), st.integers(1, 140),
              st.integers(0, 2**140), st.integers(0, 2**140)),
)


def _result(f, s, t):
    try:
        return f(s, t)
    except Exception as e:  # any error must match too
        return type(e).__name__


@settings(max_examples=1000, deadline=None)
@given(pair=_CMP_PAIR, swap=st.booleans())
def test_cmp_agrees_with_mpf_cmp(pair, swap):
    s, t = pair[::-1] if swap else pair
    assert _result(_cmp, s, t) == _result(mpf_cmp, s, t)


def _shaped(shape, m, w):
    """Endpoints of one sign case, from magnitudes m > 0 and w > 0."""
    return {
        "positive": (m, m + w),
        "negative": (-m - w, -m),
        "mixed": (-m, w),
        "zero_lo": (0, w),
        "zero_hi": (-w, 0),
        "zero": (0, 0),
        "degenerate_positive": (m, m),
        "degenerate_negative": (-m, -m),
    }[shape]


_SHAPES = ("positive", "negative", "mixed", "zero_lo", "zero_hi", "zero",
           "degenerate_positive", "degenerate_negative")
_MAGNITUDE = st.one_of(
    st.integers(1, 10**6).map(Fraction),
    st.fractions(Fraction(1, 10**6), 10**6, max_denominator=10**12)
    .filter(lambda x: x > 0),
)
# intervals of every sign case with endpoints rounded to 53..256 bits,
# ints, and Fractions (which an op rounds outward at its own precision)
_OPERAND = st.one_of(
    st.builds(lambda shape, m, w, bits: iv_make(*_shaped(shape, m, w), bits),
              st.sampled_from(_SHAPES), _MAGNITUDE, _MAGNITUDE,
              st.sampled_from([53, 64, 128, 256])),
    st.integers(-10**40, 10**40),
    st.fractions(-10**6, 10**6, max_denominator=10**12),
)
_OP_BITS = st.sampled_from([64, 128, 256])


def _mpi_operand(x, prec):
    """x as libmpi's (lo, hi) pair, formed without the interval layer."""
    if isinstance(x, IntervalScalar):
        return x._lo, x._hi
    if isinstance(x, int):
        return from_int(x), from_int(x)
    return (from_rational(x.numerator, x.denominator, prec, "f"),
            from_rational(x.numerator, x.denominator, prec, "c"))


def _bits(f, *args):
    """The raw endpoints of f(*args), or the error it raised."""
    try:
        r = f(*args)
    except Exception as e:  # any error is an outcome to compare
        return f"{type(e).__name__}: {e}"
    return r._lo, r._hi


_BINARY = {"add": iv_add, "sub": iv_sub, "mul": iv_mul, "div": iv_div}


@settings(max_examples=1500, deadline=None)
@given(op=st.sampled_from(sorted(_BINARY)), a=_OPERAND, b=_OPERAND,
       prec=_OP_BITS)
def test_binary_ops_equal_libmpi_bit_for_bit(op, a, b, prec):
    # the direct endpoint roundings of the positive cases and libmpi's case
    # analysis elsewhere give the bits libmpi gives, in every sign case
    got = _bits(_BINARY[op], a, b, prec)
    sa, sb = _mpi_operand(a, prec), _mpi_operand(b, prec)
    if op == "div" and mpf_cmp(sb[0], fzero) <= 0 <= mpf_cmp(sb[1], fzero):
        # exactly when the divisor encloses 0
        assert got == "DomainError: division by an interval containing zero"
        return
    assert got == getattr(libmpi, "mpi_" + op)(sa, sb, prec)


@settings(max_examples=1000, deadline=None)
@given(a=_OPERAND, prec=_OP_BITS)
def test_unary_ops_equal_libmpi_bit_for_bit(a, prec):
    sa = _mpi_operand(a, prec)
    lo = sa[0]
    log = _bits(iv_log, a, prec)
    if mpf_cmp(lo, fzero) <= 0:
        assert log == "DomainError: log of an interval not certainly positive"
    else:
        assert log == libmpi.mpi_log(sa, prec)
    sqrt = _bits(iv_sqrt, a, prec)
    if mpf_cmp(lo, fzero) < 0:
        assert sqrt == ("DomainError: sqrt of an interval not certainly "
                        "nonnegative")
    else:
        assert sqrt == libmpi.mpi_sqrt(sa, prec)
    assert _bits(iv_exp, a, prec) == libmpi.mpi_exp(sa, prec)
    if isinstance(a, IntervalScalar):
        assert _bits(iv_round, a, prec) == libmpi.mpi_pos(sa, prec)


def _near(n):
    """Enclosures around the int n: points at n + d and intervals with
    rational endpoints near n."""
    return st.one_of(
        st.integers(-2, 2).map(lambda d: iv_from_int(n + d)),
        st.builds(lambda a, w: iv_make(n + a, n + a + w, 64),
                  st.fractions(-3, 3, max_denominator=10**6),
                  st.fractions(0, 2, max_denominator=10**6)),
    )


@settings(max_examples=500, deadline=None)
@given(st.integers(-10**30, 10**30).flatmap(
    lambda n: st.tuples(st.just(n), _near(n))))
def test_int_operand_compares_as_its_point_interval(case):
    n, x = case
    assert iv_compare(n, x) == iv_compare(iv_from_int(n), x)
    assert iv_compare(x, n) == iv_compare(x, iv_from_int(n))


@given(st.fractions(-10**6, 10**6), st.fractions(0, 10**6),
       st.sampled_from([8, 64, 128]))
def test_dyadic_endpoints_are_exact(lo, width, prec):
    a = iv_make(lo, lo + width, prec)
    for (m, s), end in zip(iv_dyadic(a), (a.lo, a.hi)):
        assert s >= 0 and Fraction(m, 2**s) == end


def test_contains_an_interval():
    outer = iv_make(1, 3)
    assert outer.contains(iv_make(1, 2)) and outer.contains(outer)
    assert not outer.contains(iv_make(2, 4))


def test_fraction_constructor_takes_an_int_exactly():
    a = iv_from_fraction(3)
    assert a.lo == a.hi == 3


def test_str_operand_refused():
    with pytest.raises(TypeError, match="cannot treat str as an interval"):
        iv_add("1", 1)


def test_big_int_rounded_enclosure():
    n = 10**100 + 12345
    a = iv_from_int_rounded(n, 128)
    assert a.lo <= n <= a.hi
    assert a.width() < Fraction(n, 2**100)


def test_json_round_trip_exact():
    a = iv_log(iv_from_int(5040))
    j = interval_to_json(a)
    assert set(j) == {"lo", "hi"}
    b = interval_from_json(j)
    assert b.lo == a.lo and b.hi == a.hi
    # and it survives an actual serialization pass
    c = interval_from_json(json.loads(json.dumps(j)))
    assert c.lo == a.lo and c.hi == a.hi


@pytest.mark.parametrize("prec", [8192, 16384])
def test_json_round_trip_past_the_int_digit_limit(prec):
    # the endpoints have more than 4300 digits, the most str(int) and
    # Fraction(str) convert
    a = iv_log(iv_from_int(5040), prec)
    j = interval_to_json(a)
    assert min(len(j["lo"]), len(j["hi"])) > 4300
    b = interval_from_json(json.loads(json.dumps(j)), prec)
    assert b.lo == a.lo and b.hi == a.hi


@pytest.mark.parametrize("text", ["abc", "1/3", "inf", "nan", "1e99999"])
def test_json_endpoint_that_is_no_decimal_is_refused(text):
    with pytest.raises(DomainError):
        interval_from_json({"lo": text, "hi": "1"})


def test_json_zero_endpoint():
    j = interval_to_json(iv_make(0, 1))
    assert j == {"lo": "0", "hi": "1"}
    b = interval_from_json(j)
    assert b.lo == 0 and b.hi == 1


def test_json_endpoint_finer_than_the_serial_limit_is_refused():
    fine = iv_from_fraction(Fraction(1, 2 ** 65537))
    with pytest.raises(DomainError, match="too fine"):
        interval_to_json(fine)
    assert interval_to_json(iv_from_fraction(Fraction(1, 2 ** 65536)))


@pytest.mark.parametrize("obj", [{"lo": "1"}, {"hi": "1"}, None, "1"],
                         ids=["no_hi", "no_lo", "none", "str"])
def test_json_missing_endpoint_is_refused(obj):
    with pytest.raises(DomainError, match="missing endpoint"):
        interval_from_json(obj)


def test_json_foreign_decimal_rounded_outward():
    a = interval_from_json({"lo": "0.1", "hi": "0.2"})
    assert a.lo < Fraction("0.1") and a.hi > Fraction("0.2")


def test_neg_reverses_endpoints():
    n = iv_neg(iv_make(1, 2))
    assert n.lo == -2 and n.hi == -1


def test_round_widens_not_shrinks():
    a = iv_log(iv_from_int(97), prec=256)
    r = iv_round(a, 64)
    assert r.lo <= a.lo and r.hi >= a.hi
    assert r.width() >= a.width()


def _random_fraction(rng):
    num = rng.randint(-10**6, 10**6)
    den = rng.randint(1, 10**6)
    return Fraction(num, den)


def test_bulk_containment_random_rationals():
    # 10^5 random rational inputs through every arithmetic op: the exact
    # rational result must lie inside the interval result.
    rng = random.Random(20260814)
    for _ in range(25000):
        x = _random_fraction(rng)
        y = _random_fraction(rng)
        a = iv_from_fraction(x, 64)
        b = iv_from_fraction(y, 64)
        assert iv_add(a, b, 64).contains(x + y)
        assert iv_sub(a, b, 64).contains(x - y)
        assert iv_mul(a, b, 64).contains(x * y)
        if not (b.lo <= 0 <= b.hi):
            assert iv_div(a, b, 64).contains(Fraction(x) / y)


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
)
def test_log_exp_round_trip_contains(num, den):
    x = Fraction(num, den)
    a = iv_from_fraction(x, 96)
    back = iv_exp(iv_log(a, 96), 96)
    assert back.lo <= x <= back.hi


def _expression(x, prec):
    # log(1 + x^2) / (x + 3), exercised at several precisions
    ax = iv_from_fraction(x, prec)
    num = iv_log(iv_add(iv_from_int(1), iv_mul(ax, ax, prec), prec), prec)
    return iv_div(num, iv_add(ax, iv_from_int(3), prec), prec)


def test_precision_monotonicity_nesting():
    rng = random.Random(99)
    for _ in range(200):
        x = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        prev = None
        for prec in (64, 96, 128, 192, 256):
            cur = _expression(x, prec)
            if prev is not None:
                assert prev.lo <= cur.lo and cur.hi <= prev.hi
            prev = cur


def test_verdicts_never_flip_with_precision():
    rng = random.Random(7)
    for _ in range(500):
        x = _random_fraction(rng)
        y = _random_fraction(rng)
        low = iv_compare(iv_from_fraction(x, 64), iv_from_fraction(y, 64))
        high = iv_compare(iv_from_fraction(x, 256), iv_from_fraction(y, 256))
        if low is not Comparison.OVERLAPPING:
            assert high is low


def test_repr_readable():
    assert "IntervalScalar[" in repr(iv_from_int(3))
