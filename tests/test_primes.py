"""Prime table construction, lookups, gap windows."""

import random

import pytest
import sympy

from robinaudit import primes
from robinaudit.errors import DomainError, ResourceBudgetError, TableTooSmallError
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


def test_gap_window_sieve_sees_prime_gaps(monkeypatch):
    # shortened windows (x, x + w] that may hold no prime: the window sieve
    # must answer exactly whether the next prime falls inside
    rng = random.Random(7)
    cases = []
    for _ in range(40):
        x = rng.randrange(DUSART_GAP_THRESHOLD, 10**9 + 1)
        gap = sympy.nextprime(x) - x
        cases += [(x, gap - 1), (x, gap), (x, rng.randrange(1, 2000))]
    for x, w in cases:
        if w < 1:
            continue
        monkeypatch.setattr(primes, "dusart_window_end", lambda x, prec, w=w: x + w)
        assert dusart_gap_holds(x) == (sympy.nextprime(x) <= x + w), (x, w)

