"""Prime table construction, lookups, gap windows."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy

from robinaudit import primes
from robinaudit.errors import DomainError, ResourceBudgetError, TableTooSmallError
from robinaudit.intervals import iv_from_int, iv_log
from robinaudit.primes import (
    DUSART_GAP_THRESHOLD,
    PrimeTable,
    dusart_gap_holds,
    dusart_window_end,
)


def _naive_primes(limit):
    out = []
    for n in range(2, limit + 1):
        for d in range(2, int(n**0.5) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


def test_table_matches_naive_small():
    t = PrimeTable.build(2000)
    assert list(t._primes) == _naive_primes(2000)


def test_prime_counts():
    t = PrimeTable.build(10**6)
    assert len(t) == 78498  # pi(10^6)
    assert len(PrimeTable.build(100)) == 25
    for limit in (1, 0, -7):
        t = PrimeTable.build(limit)
        assert len(t) == 0 and t.limit == max(limit, 0)


def test_nth_prime_and_index_inverse(table_1e6):
    t = table_1e6
    assert t.nth_prime(1) == 2
    assert t.nth_prime(25) == 97
    for i in (1, 2, 100, 9592, 78498):
        assert sympy.primepi(t.nth_prime(i)) == i


def test_out_of_range_raises_table_too_small(table_1e6):
    t = table_1e6
    with pytest.raises(TableTooSmallError):
        t.nth_prime(len(t) + 1)
    with pytest.raises(TableTooSmallError):
        t.primes_in(2, 10**6 + 3)


_HUGE = 10**5000  # CPython formats no int of more than 4300 digits


@pytest.mark.parametrize("limit, text", [(2**32 + 1, "4294967297"),
                                         (10**60, "1" + "0" * 60),
                                         (_HUGE, "<16610-bit integer>")],
                         ids=["2^32+1", "1e60", "1e5000"])
def test_build_refuses_limits_above_2_to_32(limit, text):
    with pytest.raises(ResourceBudgetError, match=f"limit {text} is above"):
        PrimeTable.build(limit)


@pytest.mark.parametrize("i, j", [(1, _HUGE), (_HUGE, _HUGE + 1)],
                         ids=["from_one", "from_huge"])
def test_huge_slice_end_is_table_too_small(i, j):
    # the message gives the size of the huge index, not a ValueError
    t = PrimeTable.build(100)
    with pytest.raises(TableTooSmallError, match="16610-bit integer") as e:
        t.slice(i, j)
    assert e.value.needed == j
    with pytest.raises(TableTooSmallError, match="16610-bit integer"):
        t.primes_in(2, j)
    with pytest.raises(TableTooSmallError, match="index 26 requested"):
        t.slice(1, 26)


def test_slice_is_one_based_inclusive(table_1e6):
    s = table_1e6.slice(1, 4)
    assert list(s) == [2, 3, 5, 7]
    assert table_1e6.slice(5, 4).size == 0  # empty range allowed
    for i, j in [(0, 3), (5, 3)]:
        with pytest.raises(DomainError, match="bad prime index range"):
            table_1e6.slice(i, j)


def test_table_is_read_only():
    t = PrimeTable.build(100)
    with pytest.raises(ValueError):
        t.slice(1, 3)[0] = 4
    with pytest.raises(ValueError):
        t.primes_in(2, 10)[:] = 0
    assert t.nth_prime(1) == 2 and list(t.slice(1, 3)) == [2, 3, 5]


def test_primes_in_range(table_1e6):
    assert list(table_1e6.primes_in(90, 110)) == [97, 101, 103, 107, 109]


def test_against_sympy_spot_checks(table_1e6):
    t = table_1e6
    for i in (10, 1000, 50000):
        assert t.nth_prime(i) == sympy.prime(i)


def test_gap_below_threshold_rejected():
    with pytest.raises(DomainError):
        dusart_gap_holds(DUSART_GAP_THRESHOLD - 1)
    with pytest.raises(DomainError, match="got -<16610-bit integer>"):
        dusart_gap_holds(-_HUGE)
    # (3, 3.0005] holds no integer
    with pytest.raises(DomainError, match="degenerate gap window at 3"):
        dusart_window_end(3)
    with pytest.raises(ResourceBudgetError, match="above the supported 2\\^62"):
        dusart_gap_holds(2**62)


def test_gap_window_is_conservative():
    x = DUSART_GAP_THRESHOLD
    end = dusart_window_end(x)
    # true window: x * (1 + (1/5000)/log^2 x); the certified end never exceeds it
    import math

    true_end = x * (1 + (1 / 5000) / math.log(x) ** 2)
    assert x < end <= true_end + 1e-3


def test_gap_holds_at_threshold_and_beyond():
    assert dusart_gap_holds(DUSART_GAP_THRESHOLD)
    assert dusart_gap_holds(10**9)
    assert dusart_gap_holds(123456789 * 5)  # arbitrary interior point


def test_gap_window_matches_nextprime():
    rng = random.Random(20261018)
    xs = [DUSART_GAP_THRESHOLD, 10**9]
    xs += [rng.randrange(DUSART_GAP_THRESHOLD, 10**9 + 1) for _ in range(50)]
    for x in xs:
        assert dusart_gap_holds(x) == (sympy.nextprime(x) <= dusart_window_end(x))


# The least prime above the threshold, 235 past it; the prime before it
# lies below the threshold.
_P_TH = DUSART_GAP_THRESHOLD + 235
# next prime 1 away (x + 1 prime), then at the edges of the 64-integer
# blocks: last but one and last of the first block, first and last of the
# second
_BLOCK_EDGE_GAPS = (1, 63, 64, 65, 128)


def _gap_cases():
    rng = random.Random(7)
    xs = [rng.randrange(DUSART_GAP_THRESHOLD, 10**9 + 1) for _ in range(40)]
    xs += [_P_TH - g for g in _BLOCK_EDGE_GAPS]
    return xs + [2**29 - 1, 2**29, 2**30 - 1]


GAP_CASES = _gap_cases()


def test_gap_window_sieve_sees_prime_gaps():
    # the block search returns exactly the next prime, wherever it falls
    for g in _BLOCK_EDGE_GAPS:
        assert sympy.nextprime(_P_TH - g) == _P_TH
    for x in GAP_CASES:
        assert primes._next_prime_above(x) == sympy.nextprime(x), x


def test_integer_window_end_is_below_interval_end():
    # bl * ln 2's upper bound exceeds log x, so the integer end stays
    # inside the certified window; 2^30 - 1 and 2^50 - 1 sit just below a
    # power of two, where log x is closest to bl ln 2
    for x in GAP_CASES + [DUSART_GAP_THRESHOLD, 2**50 - 1]:
        assert x < primes._integer_window_end(x) <= dusart_window_end(x), x
        upper = Fraction(x.bit_length() * primes._LN2_UP, 10**6)
        assert upper >= iv_log(iv_from_int(x)).hi, x


def test_threshold_takes_the_interval_fallback():
    # a scan of every prime gap of at least 220 in [threshold, 2^31] found
    # three x whose next prime lies past the integer end, x + 232: the
    # threshold and the two integers after it; the interval end takes them
    for x in range(DUSART_GAP_THRESHOLD, DUSART_GAP_THRESHOLD + 4):
        assert primes._next_prime_above(x) == _P_TH == sympy.nextprime(x)
        fallback = x < DUSART_GAP_THRESHOLD + 3
        assert (primes._integer_window_end(x) < _P_TH) == fallback, x
        assert _P_TH <= dusart_window_end(x)
        assert dusart_gap_holds(x)


def test_gap_at_1e15_needs_little_memory():
    # the window at 10^15 holds 167,654,841 integers, a 168 MB array if it
    # were sieved whole; the block search needs the sieving primes up to
    # 3.2e7 (15.6 MB), built for the call, and little more
    assert dusart_gap_holds(10**9)  # the shared table, built first if need be
    tracemalloc.start()
    try:
        assert dusart_gap_holds(10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 10**6, peak
    # that table went with the call: the shared one keeps its fixed size
    assert primes._GAP_BASE_TABLE.limit == primes._GAP_BASE_LIMIT


def test_gap_tables_past_the_shared_limit_are_the_calls_own(monkeypatch):
    monkeypatch.setattr(primes, "_GAP_BASE_TABLE", None)
    assert dusart_gap_holds(10**9)  # range_sweep's largest x
    shared = primes._GAP_BASE_TABLE
    assert shared.limit == primes._GAP_BASE_LIMIT >= math.isqrt(10**9 + 63)
    # blocks on both sides of the shared table's reach, and far past it
    edge = (primes._GAP_BASE_LIMIT + 1) ** 2
    for x in (edge - 200, edge - 70, edge, 10**12 + 39):
        assert primes._next_prime_above(x) == sympy.nextprime(x), x
    assert primes._GAP_BASE_TABLE is shared
