"""Sigma sieve, range verification, abundancy records, CA construction."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from robinaudit.errors import (
    DomainError,
    PrecisionError,
    ResourceBudgetError,
    TableTooSmallError,
)
from robinaudit import generators
from robinaudit.factored import CandidateFactorization, materialize
from robinaudit.generators import (
    AbundanceRecord,
    _tangent_screen,
    _threshold,
    ca_candidate,
    ca_sweep,
    robin_exceptions,
    sigma_range,
    superabundant_up_to,
    verify_range,
)
from robinaudit.intervals import Comparison, iv_compare, iv_log, iv_mul

from oracles import ca_exponent_oracle, sigma_divisor_pairs

# The complete list of failures below 5041 (classical; frozen as oracle).
ROBIN_EXCEPTIONS = [
    3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72, 84,
    120, 180, 240, 360, 720, 840, 2520, 5040,
]


def _naive_sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_sigma_range_matches_naive():
    sig = sigma_range(1, 300)
    for n in range(1, 301):
        assert int(sig[n - 1]) == _naive_sigma(n)


def test_sigma_range_offset_segment():
    sig = sigma_range(9973, 10100)
    for n in (9973, 10000, 10080, 10100):
        assert int(sig[n - 9973]) == int(sympy.divisor_sigma(n))
    assert int(sig[10080 - 9973]) == 39312


def test_sigma_range_rejects_bad_bounds():
    with pytest.raises(DomainError):
        sigma_range(0, 5)
    with pytest.raises(DomainError):
        sigma_range(10, 5)


_P = 99991  # the largest prime below 10^5: around p^2, p is just below sqrt(hi)


@pytest.mark.parametrize("lo, hi", [
    (1, 4096),
    (5041, 5041 + 4095),
    (10**7, 10**7 + 4095),
    (10**9, 10**9 + 4095),
    (10**10, 10**10 + 4095),
    (_P * _P - 2000, _P * _P + 2000),  # holds p^2 for p just below sqrt(hi)
    (3**20, 3**20 + 4095),  # starts on a prime power
    (2**33, 2**33 + 4095),
    (1, 1),
    (5040, 5040),
    (_P, _P),
    (_P * _P, _P * _P),
    (10**10, 10**10),
])
def test_sigma_range_matches_divisor_pairs(lo, hi):
    assert np.array_equal(sigma_range(lo, hi), sigma_divisor_pairs(lo, hi))


def test_sigma_range_cap():
    with pytest.raises(DomainError):
        sigma_range(10**18, 10**18 + 1)
    with pytest.raises(DomainError):
        verify_range(10**18 + 1, 10**18 + 1)
    with pytest.raises(DomainError):
        verify_range(10**19, 10**19)
    with pytest.raises(DomainError):  # B j of the screen would pass 2^63
        verify_range(5041, 6000, segment=(1 << 26) + 1)
    with pytest.raises(DomainError):
        verify_range(5041, 6000, segment=0)


@pytest.mark.parametrize("a", [3, 5041, 10**10])
def test_tangent_screen_below_threshold(a):
    size = 1 << 20
    screen = _tangent_screen(a, size, 128)
    assert screen.dtype == np.int64 and screen.size == size
    rng = random.Random(a)
    ks = [0, 1, 2, 3, size // 2, size - 2, size - 1]
    ks += [rng.randrange(size) for _ in range(40)]
    for k in ks:
        assert int(screen[k]) <= math.floor(_threshold(a + k, 128).lo), k
    # non-decreasing, and within 1 % of the threshold from 5041 on
    assert np.all(np.diff(screen) >= 0)
    assert int(screen[0]) == math.floor(_threshold(a, 128).lo)
    if a >= 5041:
        for k in ks:
            assert int(screen[k]) >= 0.99 * _threshold(a + k, 128).lo, k


def test_tangent_screen_exhaustive_short_segments():
    for a in range(3, 200, 7):
        screen = _tangent_screen(a, 7, 128)
        for k in range(7):
            assert int(screen[k]) <= math.floor(_threshold(a + k, 128).lo)


def test_verify_range_finds_all_exceptions():
    res = verify_range(3, 5040)
    assert [r.n for r in res.violations] == ROBIN_EXCEPTIONS
    assert res.unknowns == []
    assert res.checked == 5038
    for rec in res.violations:
        assert rec.sigma == _naive_sigma(rec.n) if rec.n <= 300 else True
        assert Fraction(rec.sigma) > rec.threshold.hi  # certified violation


def test_verify_range_clean_above_5040():
    res = verify_range(5041, 100000)
    assert res.violations == []
    assert res.unknowns == []


@pytest.mark.parametrize("segment", [7, 4096, 1 << 20])
def test_verify_range_segment_sizes_agree(segment):
    res = verify_range(3, 20000, segment=segment)
    assert [r.n for r in res.violations] == ROBIN_EXCEPTIONS
    assert [(r.sigma, r.verdict) for r in res.violations] == [
        (int(sympy.divisor_sigma(n)), "fails") for n in ROBIN_EXCEPTIONS]
    assert res.unknowns == []
    assert res.checked == 19998


def test_verify_range_preconditions():
    with pytest.raises(DomainError):
        verify_range(1, 10)
    with pytest.raises(DomainError):
        verify_range(100, 10)


def test_verify_record_fields():
    res = verify_range(5040, 5040)
    (rec,) = res.violations
    assert rec.n == 5040
    assert rec.sigma == 19344
    assert rec.rho == Fraction(19344, 5040)
    assert rec.verdict == "fails"


def test_robin_exceptions_helper():
    assert robin_exceptions() == ROBIN_EXCEPTIONS


def test_robin_exceptions_suggests_past_the_ladder(monkeypatch):
    # _classify has already tried up to prec << 4, so the suggestion must
    # lie beyond the ladder, as compute_u and _ca_at_least suggest
    monkeypatch.setattr(generators, "escalate", lambda attempt, prec: None)
    with pytest.raises(PrecisionError) as info:
        robin_exceptions(128)
    assert info.value.suggested_precision_bits == 4096


def test_superabundant_prefix():
    recs = superabundant_up_to(10**5)
    assert [r.n for r in recs[:10]] == [1, 2, 4, 6, 12, 24, 36, 48, 60, 120]
    # abundancy strictly increases along the list
    rhos = [r.rho for r in recs]
    assert all(a < b for a, b in zip(rhos, rhos[1:]))
    # and each n is a true record against a brute scan
    sig = sigma_divisor_pairs(1, 2000)
    best = Fraction(0)
    brute = []
    for n in range(1, 2001):
        q = Fraction(int(sig[n - 1]), n)
        if q > best:
            brute.append(n)
            best = q
    assert [r.n for r in recs if r.n <= 2000] == brute


def test_superabundant_record_values():
    recs = {r.n: r for r in superabundant_up_to(10**5)}
    assert recs[5040].sigma == 19344
    assert recs[55440].sigma == 232128


def test_superabundant_bad_limit():
    with pytest.raises(DomainError):
        superabundant_up_to(0)
    with pytest.raises(DomainError):
        superabundant_up_to(10**15 + 1)  # sigma(n) would leave float64


def test_superabundant_segments_agree():
    # a record found in one segment must screen the next segment's start
    want = [(r.n, r.sigma) for r in superabundant_up_to(60000)]
    for segment in (7, 1000, 1 << 12):
        got = superabundant_up_to(60000, segment=segment)
        assert [(r.n, r.sigma) for r in got] == want


def test_ca_candidate_known_values(table_1e6):
    t = table_1e6
    # eps = 0.05 selects 2^3 3^2 5 7 = 2520
    c = ca_candidate(Fraction(1, 20), t)
    assert materialize(c, t) == 2520
    # a one-prime candidate appears for eps just below log2(1.5)
    c2 = ca_candidate(Fraction(55, 100), t)
    assert materialize(c2, t) == 2


def test_ca_candidate_empty_rejected(table_1e6):
    with pytest.raises(DomainError):
        ca_candidate(1, table_1e6)
    with pytest.raises(DomainError):
        ca_candidate(Fraction(9, 10), table_1e6)
    with pytest.raises(DomainError):
        ca_candidate(0, table_1e6)
    with pytest.raises(DomainError):
        ca_candidate(Fraction(-1, 2), table_1e6)


def test_ca_candidate_table_budget():
    small = __import__("robinaudit.primes", fromlist=["PrimeTable"]).PrimeTable.build(40)
    with pytest.raises(TableTooSmallError):
        ca_candidate(Fraction(1, 10**6), small)


def test_ca_sweep_known_prefix(table_1e6):
    got = [materialize(c, table_1e6) for c in ca_sweep(8, table_1e6)]
    assert got == [2, 6, 12, 60, 120, 360, 2520, 5040]


def test_ca_sweep_distinct_and_exact_count(table_1e6):
    cands = ca_sweep(12, table_1e6)
    assert len(cands) == 12
    assert len({c.runs for c in cands}) == 12
    for c in cands:
        assert c.canonical


def test_ca_candidates_are_abundancy_records(table_1e6):
    # every CA value <= 10^6 is superabundant
    sa = {r.n for r in superabundant_up_to(10**6)}
    for c in ca_sweep(14, table_1e6):
        n = materialize(c, table_1e6)
        if n <= 10**6:
            assert n in sa, n


def test_ca_float_and_str_epsilon(table_1e6):
    a = ca_candidate(0.05, table_1e6)
    b = ca_candidate("0.05", table_1e6)
    c = ca_candidate(Fraction(1, 20), table_1e6)
    assert b.runs == c.runs
    # 0.05 the float is not exactly 1/20 but lands in the same cell
    assert a.runs == c.runs


def test_ca_exponent_formula_directly(table_1e6):
    # independent check of the exponent rule for eps = 1/2:
    # a(p) = floor(log((p^1.5 - 1)/(p^0.5 - 1)) / log p) - 1
    import math

    c = ca_candidate(Fraction(1, 2), table_1e6)
    n = materialize(c, table_1e6)
    for p in (2, 3, 5, 7, 11):
        x = (p**1.5 - 1) / (p**0.5 - 1)
        want = max(int(math.log(x) / math.log(p)) - 1, 0)
        assert c.a(table_1e6.prime_index(p)) == want
    assert n == 2  # only a(2) = 1 survives at this epsilon


def _assert_ca_matches_oracle(eps, t):
    if ca_exponent_oracle(2, eps) < 1:
        with pytest.raises(DomainError):
            ca_candidate(eps, t)
        return
    c = ca_candidate(eps, t)
    for i in range(1, c.r + 1):
        assert c.a(i) == ca_exponent_oracle(t.nth_prime(i), eps), (eps, i)
    assert ca_exponent_oracle(t.nth_prime(c.r + 1), eps) == 0, eps


def test_ca_candidate_matches_oracle_on_geometric_grid(table_1e6):
    for j in range(1, 41):
        _assert_ca_matches_oracle(Fraction(9, 10) ** j, table_1e6)


def test_ca_candidate_matches_oracle_on_seeded_rationals(table_1e6):
    rng = random.Random(20061309)
    for _ in range(40):
        den = rng.randint(1, 1000)
        _assert_ca_matches_oracle(Fraction(rng.randint(1, den), den), table_1e6)


def _eps_near_a2_boundary(s):
    """floor(eps* 2^s) / 2^s and that plus 2^-s, for eps* = log2(15/14),
    where a(2) drops from 3 to 2.  The floor is certified by a margin far
    above the working error."""
    with mpmath.workprec(s + 128):
        v = mpmath.log(mpmath.mpf(15) / 14, 2) * mpmath.mpf(2) ** s
        m = int(mpmath.floor(v))
        assert mpmath.mpf(2) ** -64 < v - m < 1 - mpmath.mpf(2) ** -64
    return Fraction(m, 2**s), Fraction(m + 1, 2**s)


@pytest.mark.parametrize("s", [150, 1000])
def test_ca_candidate_near_a2_boundary(s, table_1e6):
    below, above = _eps_near_a2_boundary(s)
    # 128 bits cannot tell 2^eps from 15/14 here, so the result needs escalation
    for eps in (below, above):
        cmp = iv_compare(iv_mul(eps, iv_log(2)), iv_log(Fraction(15, 14)))
        assert cmp is Comparison.OVERLAPPING
    assert ca_candidate(below, table_1e6).a(1) == 3
    assert ca_candidate(above, table_1e6).a(1) == 2


def test_ca_candidate_boundary_beyond_the_ladder(table_1e6):
    for eps in _eps_near_a2_boundary(3000):
        with pytest.raises(PrecisionError) as info:
            ca_candidate(eps, table_1e6)
        assert info.value.suggested_precision_bits == 4096


def test_ca_sweep_budget(table_1e6):
    with pytest.raises(ResourceBudgetError):
        ca_sweep(3, table_1e6, max_steps=2)
