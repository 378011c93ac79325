"""Range verification, abundancy records, CA construction."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinaudit.errors import (
    DomainError,
    PrecisionError,
    TableTooSmallError,
)
from robinaudit import generators, intervals
from robinaudit.factored import CandidateFactorization, materialize
from robinaudit.generators import (
    AbundanceRecord,
    _abundancy,
    _abundancy_bound,
    _classify,
    _sigma_sparse,
    ca_candidate,
    ca_sweep,
    robin_exceptions,
    superabundant_up_to,
    verify_range,
)
from robinaudit.intervals import iv_certainly_less, iv_log, iv_mul
from robinaudit.primes import PrimeTable, _prime_chunks

from oracles import ca_exponent_oracle, eps_inside_ca_bracket, sigma_divisor_pairs

# The complete list of failures below 5041 (classical; frozen as oracle).
ROBIN_EXCEPTIONS = [
    3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72, 84,
    120, 180, 240, 360, 720, 840, 2520, 5040,
]


def _naive_sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


_P = 99991  # the largest prime below 10^5: around p^2, p is just below sqrt(hi)


_SIGMA_WINDOWS = [
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
    (9973, 10100),
]


def _sigma_in_segments(lo, hi):
    """sigma over [lo, hi] from _sigma_sparse, cut into verify_range's
    segments, each with its own root."""
    parts, b = [], lo
    while b <= hi:
        end = min(b + generators._segment_length(b), 2 * b, hi + 1)
        ns = np.arange(b, end, dtype=np.int64)
        parts.append(_sigma_sparse(ns, math.isqrt(end - 1)))
        b = end
    return np.concatenate(parts)


def test_sigma_range_matches_naive():
    sig = _sigma_in_segments(1, 300)
    for n in range(1, 301):
        assert int(sig[n - 1]) == _naive_sigma(n)


@pytest.mark.parametrize("lo, hi", _SIGMA_WINDOWS)
def test_sigma_range_matches_divisor_pairs(lo, hi):
    assert np.array_equal(_sigma_in_segments(lo, hi), sigma_divisor_pairs(lo, hi))


@pytest.mark.parametrize("lo, hi", _SIGMA_WINDOWS)
def test_sigma_sparse_matches_divisor_pairs(lo, hi):
    root = math.isqrt(hi)
    want = sigma_divisor_pairs(lo, hi)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    assert np.array_equal(_sigma_sparse(ns, root), want)
    # sparse index sets, unsorted and with repeats
    rng = random.Random(lo)
    for k in (1, 2, 17, 300):
        idx = np.array([rng.randrange(ns.size) for _ in range(k)], dtype=np.int64)
        assert np.array_equal(_sigma_sparse(ns[idx], root), want[idx])


def test_sigma_sparse_near_1e14():
    # sqrt(hi) = 10^7 spans many sieve segments of base primes
    rng = random.Random(14)
    hi = 10**14 + 10**6
    ns = [rng.randrange(10**14, hi + 1) for _ in range(40)]
    ns += [2 * int(sympy.nextprime(math.isqrt(hi))), int(sympy.prevprime(10**7)) ** 2,
           2**46, 3**29, 10**14]
    got = _sigma_sparse(np.array(ns, dtype=np.int64), math.isqrt(hi))
    assert got.tolist() == [int(sympy.divisor_sigma(n)) for n in ns]


def _bound_windows(w):
    """Windows near w, all below (root + 1)^2 for root = isqrt(w + 4095):
    [w, w + 4095]; around 2q for the least prime q above root, the n
    whose cofactor is closest to root; around the square of the largest
    prime up to root and around the largest power of 2 up to w."""
    root = math.isqrt(w + 4095)
    q = int(sympy.nextprime(root))
    p = int(sympy.prevprime(root + 1))
    centres = [2 * q, p * p, 1 << (w.bit_length() - 1)]
    return root, [(w, w + 4095)] + [(c - 64, c + 63) for c in centres]


@pytest.mark.parametrize("w", [10**4, 10**7, 10**10])
def test_abundancy_bound_exceeds_abundancy(w):
    root, windows = _bound_windows(w)
    for lo, hi in windows:
        size = hi - lo + 1
        bound = _abundancy_bound(lo, size, root, np.empty(size))
        assert bound.dtype == np.float64 and bound.size == size
        sig = sigma_divisor_pairs(lo, hi)
        for k, (b, s) in enumerate(zip(bound.tolist(), sig.tolist())):
            assert Fraction(b) > Fraction(s, lo + k), lo + k


def _bound_per_prime(lo, size, root):
    """_abundancy_bound with one strided multiply per prime, in increasing
    order of p, and no wheel or scatter."""
    bound = np.full(size, (1 + 1 / root) * (1 + 1e-9))
    for chunk in _prime_chunks(root):
        for p in chunk.tolist():
            if -lo % p < size:
                bound[-lo % p :: p] *= p / (p - 1)
    return bound


def _check_bound_bits_match(w, size):
    rng = random.Random(w + size)
    for lo in (w, w + 1, w + 17 * 19 - 1, w + rng.randrange(10**3)):
        root = math.isqrt(lo + size - 1)
        got = _abundancy_bound(lo, size, root, np.full(size + 3, np.nan))
        want = _bound_per_prime(lo, size, root)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), lo


@pytest.mark.parametrize("size", [1, 7, 300, 4096, 1 << 16])
@pytest.mark.parametrize("w", [10**4, 10**10, 10**12])
def test_abundancy_bound_bits_match_per_prime_loop(w, size):
    # sizes on both sides of the scatter's cut at p = size / 256, and
    # offsets on, after and just before a multiple of a prime; the buffer
    # is longer than the segment and holds stale values, as in verify_range.
    _check_bound_bits_match(w, size)


@pytest.mark.parametrize("size", [1, 7, 300, 4096, 1 << 16])
@pytest.mark.parametrize("w", [10**4, 10**10, 10**12])
def test_abundancy_bound_bits_match_with_short_hit_block(w, size,
                                                         monkeypatch):
    # a short hit block cuts the scatter into many runs of primes
    monkeypatch.setattr(generators, "_HIT_BLOCK", 1000)
    _check_bound_bits_match(w, size)


_ORACLE_WINDOWS = [(720720 * 1388 - 1024, 720720 * 1388 + 1023),
                   (1441440 * 695 - 1024, 1441440 * 695 + 1023)]


def _found(recs):
    """(n, sigma, verdict) of the violations, then of the unknowns."""
    return tuple([(r.n, r.sigma, r.verdict) for r in recs if r.verdict == v]
                 for v in ("fails", "unknown"))


def _screen_free(lo, hi):
    """_found over [lo, hi] from divisor-pair sums and a certified
    comparison of every n."""
    sig = sigma_divisor_pairs(lo, hi).tolist()
    return _found([_classify(lo + k, s, 128) for k, s in enumerate(sig)])


@pytest.fixture(scope="module")
def oracle_to_20000():
    return _screen_free(3, 20000)


@pytest.mark.parametrize("lo, hi", _ORACLE_WINDOWS)
def test_verify_range_matches_oracle_near_1e9(lo, hi):
    res = verify_range(lo, hi)
    assert _found(res.violations + res.unknowns) == _screen_free(lo, hi)


def test_sigma_range_cap():
    with pytest.raises(DomainError):
        verify_range(10**18 + 1, 10**18 + 1)
    with pytest.raises(DomainError):
        verify_range(10**19, 10**19)


def _capped_product(ps):
    n = 1
    for p in ps:
        if n * p <= 10**18:
            n *= p
    return n


# n up to 10^18, uniform or smooth (so sigma(n)/n reaches up to about 6)
_N_UP_TO_1E18 = st.one_of(
    st.integers(1, 10**18),
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
             max_size=70).map(_capped_product),
)


@given(_N_UP_TO_1E18)
@settings(max_examples=200, deadline=None)
@example(897612484786617600)  # highly composite
@example(963761198400)
@example(10**18)
@example(2**59)
@example(999999999999999989)  # the largest prime below 10^18
@example(999999937**2)
@example(1)
def test_pass_2_value_bounds_abundancy(n):
    sigma = int(sympy.divisor_sigma(n))
    got = _abundancy(np.array([sigma], np.int64), np.array([n], np.int64))
    assert Fraction(float(got[0])) >= Fraction(sigma, n)


def test_screens_leave_almost_nothing(monkeypatch):
    # pass 1 alone leaves thousands of n in these ranges; the exact sigma
    # screen against the same c leaves one
    calls = []

    def counting(n, sigma, prec):
        calls.append(n)
        return _classify(n, sigma, prec)

    monkeypatch.setattr(generators, "_classify", counting)
    verify_range(5041, 10**7)
    verify_range(10**10 - 2**19, 10**10 + 2**19 - 1)
    assert len(calls) <= 2, calls


def test_classify_escalates_past_an_overlap_at_64_bits():
    # near 10^18 the 64-bit enclosure of T(n) is 3 wide, so the integers
    # inside it are undecided there; 128 bits decides each, as 512 do
    n = 10**18 - 1
    thr = generators._threshold(n, 64)
    fine = generators._threshold(n, 512)
    sigmas = range(math.ceil(thr.lo), math.floor(thr.hi) + 1)
    assert {s < fine.lo for s in sigmas} == {True, False}
    for s in sigmas:
        assert not iv_certainly_less(s, thr) and not iv_certainly_less(thr, s)
        rec = _classify(n, s, 64)
        assert rec.verdict == ("holds" if s < fine.lo else "fails")
        assert rec.threshold.width() < 2**-60


@pytest.mark.parametrize("lo, hi, mb", [
    (5041, 10**7, 8),
    (10**10 - 2**19, 10**10 + 2**19 - 1, 8),
    (10**12, 10**12 + 2**20 - 1, 15),
])
def test_verify_range_memory_stays_small(lo, hi, mb):
    # one float64 bound buffer per call, 4 MB for the 2^19 segments below
    # about 6.9e10 and 8 MB for 2^20 ones, and scatter index arrays near
    # 1.5 MB; 2^20 segments everywhere, with the scatter in one run, peak
    # at 16, 14 and 19 MB on these ranges
    tracemalloc.start()
    try:
        verify_range(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mb * 2**20, peak


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
def test_verify_range_segment_sizes_agree(segment, oracle_to_20000, monkeypatch):
    monkeypatch.setattr(generators, "_SEGMENT", segment)
    res = verify_range(3, 20000)
    assert _found(res.violations + res.unknowns) == oracle_to_20000
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
    # no message formats an int of more than 4300 digits
    for lo, hi in [(5041, 10**5000), (-10**5000, 10), (10**5000, 5041)]:
        with pytest.raises(DomainError, match="bit integer"):
            verify_range(lo, hi)


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
    def undecided(attempt, prec):
        raise PrecisionError("undecided")

    monkeypatch.setattr(generators, "escalate", undecided)
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
        superabundant_up_to(10**15 + 1)
    for limit in (10**5000, -10**5000):
        with pytest.raises(DomainError, match="bit integer"):
            superabundant_up_to(limit)


@pytest.fixture(scope="module")
def sa_to_1e6():
    return [(r.n, r.sigma) for r in superabundant_up_to(10**6)]


@settings(max_examples=60, deadline=None)
@given(limit=st.integers(1, 10**6))
@example(limit=1)
@example(limit=2)
@example(limit=3)
@example(limit=5040)
@example(limit=55440)
def test_superabundant_lists_are_prefixes(sa_to_1e6, limit):
    got = [(r.n, r.sigma) for r in superabundant_up_to(limit)]
    assert got == [(n, s) for n, s in sa_to_1e6 if n <= limit]


def test_superabundant_exponents_do_not_increase():
    recs = superabundant_up_to(10**15)
    assert len(recs) == 88
    for r in recs:
        f = sympy.factorint(r.n)
        assert list(f) == list(sympy.primerange(2, max(f, default=1) + 1)), r.n
        exps = list(f.values())
        assert exps == sorted(exps, reverse=True), r.n
        assert r.sigma == int(sympy.divisor_sigma(r.n)), r.n


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


def _linear_exponent(p, eps, prec=128):
    """a(p) by walking e upward one probe at a time."""
    e = 0
    while generators._ca_at_least(p, e + 1, eps, prec):
        e += 1
    return e


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 40))
@example(1, 0)   # a(2) = 0
@example(3, 1)   # a(2) = 1, no doubling
def test_exponent_of_2_matches_linear_walk(table_1e5, m, k):
    eps = Fraction(m, 10**k)
    a2 = _linear_exponent(2, eps)
    assert generators._ca_exponent_of_2(eps, 128) == a2
    if a2 and k <= 3:
        # the whole vector: each prime's exponent walked on its own
        exps = ca_candidate(eps, table_1e5).exponents_list()
        primes = table_1e5.slice(1, len(exps) + 1).tolist()
        assert exps + [0] == [_linear_exponent(p, eps) for p in primes]


def test_exponent_of_2_past_the_rounding_of_f(monkeypatch):
    # a(2) = 14,280: probes above about e = 2,046 round F = 1 + x, with
    # x about 2^-e, to 1 at every precision of the ladder, so they are
    # decided by the exact bracket x/(1 + x) < log F < x
    eps = Fraction(1, 10**4299)
    assert ca_exponent_oracle(2, eps, bits=50_000) == 14_280
    assert generators._ca_exponent_of_2(eps, 128) == 14_280
    assert generators._ca_at_least(2, 14_280, eps, 128)
    assert not generators._ca_at_least(2, 14_281, eps, 128)
    # the first rung's bracket decides a(2) >= 4096, so the probe asks for
    # no log above 128 bits, in any module
    real, asked = intervals.iv_log_rational, []

    def spy(x, prec=intervals.DEFAULT_PRECISION_BITS):
        asked.append(prec)
        return real(x, prec)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("robinaudit")
                and getattr(module, "iv_log_rational", None) is real):
            monkeypatch.setattr(module, "iv_log_rational", spy)
    assert generators._ca_at_least(2, 4096, eps, 128)
    assert asked and set(asked) == {128}


@pytest.mark.parametrize("side", [-1, 1], ids=["below_log_f", "above_log_f"])
@pytest.mark.parametrize("e", [1500, 3000])
def test_exponent_inside_the_bracket_is_reported(e, side):
    # eps log 2 strictly inside x/(1 + x) < log F < x, on either side of
    # log F: the bracket cannot place it, and the probe says so.  At
    # e = 1500 the top of the ladder, 2048 bits, tells eps log 2 from
    # both ends of the bracket; at e = 3000 from neither.
    eps = eps_inside_ca_bracket(e, side)
    with pytest.raises(PrecisionError, match="straddles a power boundary"):
        generators._ca_at_least(2, e, eps, 128)


def test_epsilon_past_4300_digits_is_named_by_its_size(table_1e5):
    # str() of such an epsilon raises ValueError; the refusals name each
    # side's bit count instead
    with pytest.raises(DomainError, match=r"got -1/<14617-bit integer>$"):
        ca_candidate(Fraction(-1, 10**4400), table_1e5)
    with pytest.raises(TableTooSmallError, match=r"eps=3/<14617-bit integer>;"):
        ca_candidate(Fraction(3, 10**4400), table_1e5)
    with pytest.raises(DomainError, match=r"got -3/7$"):
        ca_candidate(Fraction(-3, 7), table_1e5)
    with pytest.raises(DomainError, match=r"^epsilon 5 gives an empty"):
        ca_candidate(5, table_1e5)


def test_ca_sweep_needs_a_positive_count(table_1e5):
    with pytest.raises(DomainError, match="count must be >= 1, got 0"):
        ca_sweep(0, table_1e5)


def test_ca_sweep_known_prefix(table_1e6):
    got = [materialize(c, table_1e6) for c in ca_sweep(8, table_1e6)]
    assert got == [2, 6, 12, 60, 120, 360, 2520, 5040]


@pytest.mark.parametrize("k", [1, 2, 7, 19])
def test_ca_sweep_is_a_prefix_of_a_longer_sweep(k, table_1e6):
    longer = [c.runs for c in ca_sweep(20, table_1e6)]
    assert [c.runs for c in ca_sweep(k, table_1e6)] == longer[:k]


def test_ca_sweep_ends_where_its_table_ends(table_1e6):
    # no prime at all: refused at the first grid point with a(2) >= 1,
    # while an empty vector needs no table
    empty = PrimeTable.build(1)
    with pytest.raises(TableTooSmallError, match="no prime; enlarge the table") as info:
        ca_sweep(3, empty)
    assert info.value.needed == 2
    with pytest.raises(DomainError, match="empty exponent vector"):
        ca_candidate(2, empty)
    # primes to 100: the candidates that fit are the same, and the sweep
    # stops at the first that needs a prime past 100
    small = PrimeTable.build(100)
    fits = [c.runs for c in ca_sweep(20, small)]
    assert fits == [c.runs for c in ca_sweep(20, table_1e6)]
    with pytest.raises(TableTooSmallError, match="up to 100 .*enlarge the table"):
        ca_sweep(40, small)


def test_ca_sweep_distinct_and_exact_count(table_1e6):
    cands = ca_sweep(12, table_1e6)
    assert len(cands) == 12
    assert len({c.runs for c in cands}) == 12
    for c in cands:
        assert c.canonical


def test_ca_candidates_are_abundancy_records(table_1e6):
    # every CA value <= 10^15 is superabundant
    sa = {r.n for r in superabundant_up_to(10**15)}
    ca = [materialize(c, table_1e6) for c in ca_sweep(20, table_1e6)]
    assert ca[-1] > 10**15
    for n in ca:
        if n <= 10**15:
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
    for i, p in enumerate((2, 3, 5, 7, 11), start=1):
        x = (p**1.5 - 1) / (p**0.5 - 1)
        want = max(int(math.log(x) / math.log(p)) - 1, 0)
        assert c.a(i) == want
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
        lhs, log_f = iv_mul(eps, iv_log(2)), iv_log(Fraction(15, 14))
        assert not iv_certainly_less(lhs, log_f)
        assert not iv_certainly_less(log_f, lhs)
    assert ca_candidate(below, table_1e6).a(1) == 3
    assert ca_candidate(above, table_1e6).a(1) == 2


def test_ca_candidate_boundary_beyond_the_ladder(table_1e6):
    for eps in _eps_near_a2_boundary(3000):
        with pytest.raises(PrecisionError) as info:
            ca_candidate(eps, table_1e6)
        assert info.value.suggested_precision_bits == 4096

