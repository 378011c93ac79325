"""Prime tables and the certified prime-gap window check.

A PrimeTable is an immutable sorted array of all primes up to a limit,
built with a segmented sieve of Eratosthenes.  Each table keeps a bounded
memo of enclosures derived from its cells of primes (see
``PrimeTable._memoized``), which lives and dies with the table; values
that depend on one prime and the precision alone (its log, the audit's
top-prime bounds) sit in bounded process caches instead.
dusart_gap_holds verifies that a short interval above x contains a prime:
it sieves 64-integer blocks from x + 1 up to the first prime p and checks
p against an exact integer end below the window's true end, forming the
outward-rounded interval end only when p lies past the integer one, so a
True answer is a certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import DomainError, ResourceBudgetError, TableTooSmallError, _int_text
from .intervals import (
    DEFAULT_PRECISION_BITS,
    iv_add,
    iv_div,
    iv_from_fraction,
    iv_from_int,
    iv_log,
    iv_mul,
)

# Short prime gaps are guaranteed above this bound: for x >= it, the
# interval (x, x(1 + (1/5000)/log^2 x)] contains a prime.
DUSART_GAP_THRESHOLD = 468991632
DUSART_GAP_COEFF = Fraction(1, 5000)

_SEGMENT = 1 << 20

# dusart_gap_holds sieves this many integers at a time; the mean prime gap
# near 10^9 is about 21.
_GAP_BLOCK = 64
# ln 2 < _LN2_UP / 10^6
_LN2_UP = 693148
# Below it the next prime lies below 2^63 (Bertrand), so sieve positions
# fit int64.
_GAP_MAX_X = 1 << 62

# Entries a table's memo holds before it is emptied.  A corpus pass of the
# benchmark (seed 1) stores 418, and a power-form full_audit at r = 10^6
# (its bulk run at exponent 2 reads the prefix of cell logs, not e log
# entries) stores 3,936 per precision, so this covers that audit at 128
# bits and its 256-bit recheck (7,872 entries, about 5.6 MB).
_MEMO_CAP = 1 << 14

# Largest limit a table is built for: 203,280,221 primes, 1.6 GB as int64.
_MAX_LIMIT = 1 << 32


def _simple_sieve(limit: int) -> np.ndarray:
    """Boolean array s with s[i] true iff i is prime, for 0 <= i <= limit."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def _sieve_odd_segment(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Odd primes in [lo, hi), as int64.  lo must be odd, lo >= 3."""
    n = (hi - lo + 1) // 2  # odd numbers lo, lo+2, ...
    flags = np.ones(n, dtype=bool)
    for p in base_primes:
        p = int(p)
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start >= hi:
            continue
        flags[(start - lo) // 2 :: p] = False
    return (lo + 2 * np.flatnonzero(flags)).astype(np.int64)


def _prime_chunks(limit: int) -> Iterator[np.ndarray]:
    """All primes <= limit as increasing int64 arrays, one sieve segment
    each, so a caller that walks them holds one segment at a time."""
    if limit < 2:
        return
    base = np.flatnonzero(_simple_sieve(max(isqrt(limit), 3))).astype(np.int64)
    odd_base = base[base > 2]
    yield np.array([2], dtype=np.int64)
    lo = 3
    while lo <= limit:
        hi = min(lo + _SEGMENT, limit + 1)
        yield _sieve_odd_segment(lo, hi, odd_base)
        lo = hi
        if lo % 2 == 0:
            lo += 1


class PrimeTable:
    """All primes up to ``limit`` as a sorted int64 array, 1-based indexing.

    The array is read-only, so no slice can change the primes that the
    memo's entries were derived from."""

    __slots__ = ("limit", "_primes", "_memo")

    def __init__(self, limit: int, primes: np.ndarray):
        primes.flags.writeable = False
        self.limit = int(limit)
        self._primes = primes
        self._memo: dict = {}

    def _memoized(self, key: tuple, compute: Callable[[], object]) -> object:
        """``compute()``, kept under ``key`` for as long as the table lives.

        For small values that depend only on the primes and on ``key``
        (cell enclosures with their precision, M(k)), so a hit returns
        exactly what ``compute()`` would.  One value grows in place, the
        prefix of cell logs of ``factored.log_n``: a list whose entries stay
        fixed once appended.  Past ``_MEMO_CAP`` entries the memo is emptied
        and starts again."""
        v = self._memo.get(key)
        if v is None:
            v = compute()
            if len(self._memo) >= _MEMO_CAP:
                self._memo.clear()
            self._memo[key] = v
        return v

    @classmethod
    def build(cls, limit: int) -> "PrimeTable":
        """All primes up to ``limit``; refuses a limit above 2^32."""
        if limit > _MAX_LIMIT:
            raise ResourceBudgetError(
                f"prime limit {_int_text(limit)} is above 2^32")
        if limit < 2:
            return cls(max(limit, 0), np.empty(0, dtype=np.int64))
        return cls(limit, np.concatenate(list(_prime_chunks(limit))))

    def __len__(self) -> int:
        return int(self._primes.size)

    def nth_prime(self, i: int) -> int:
        """The i-th prime, 1-based: nth_prime(1) == 2."""
        if i < 1:
            raise DomainError(f"prime index must be >= 1, got {_int_text(i)}")
        if i > self._primes.size:
            raise TableTooSmallError(
                f"table holds {self._primes.size} primes, "
                f"index {_int_text(i)} requested",
                needed=i,
            )
        return int(self._primes[i - 1])

    def slice(self, i: int, j: int) -> np.ndarray:
        """Primes p_i..p_j inclusive (1-based) as a read-only int64 view."""
        if i < 1 or j < i - 1:
            raise DomainError(f"bad prime index range [{_int_text(i)}, {_int_text(j)}]")
        if j > self._primes.size:
            raise TableTooSmallError(
                f"table holds {self._primes.size} primes, "
                f"index {_int_text(j)} requested",
                needed=j,
            )
        return self._primes[i - 1 : j]

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Primes in [lo, hi] as a read-only int64 view."""
        if hi > self.limit:
            raise TableTooSmallError(
                f"{_int_text(hi)} beyond table limit {self.limit}", needed=hi
            )
        a = int(np.searchsorted(self._primes, lo, side="left"))
        b = int(np.searchsorted(self._primes, hi, side="right"))
        return self._primes[a:b]


_GAP_BASE_LIMIT = 40000  # reaches every x < 1.6e9, range_sweep's x <= 10^9
_GAP_BASE_TABLE: Optional[PrimeTable] = None


def _gap_base_table(root: int) -> PrimeTable:
    """Primes up to at least ``root``, shared up to _GAP_BASE_LIMIT."""
    global _GAP_BASE_TABLE
    if root > _GAP_BASE_LIMIT:
        return PrimeTable.build(root + _GAP_BLOCK)
    if _GAP_BASE_TABLE is None:
        _GAP_BASE_TABLE = PrimeTable.build(_GAP_BASE_LIMIT)
    return _GAP_BASE_TABLE


def dusart_window_end(x: int, prec: int = DEFAULT_PRECISION_BITS) -> int:
    """Certified lower bound for x(1 + (1/5000)/log^2 x) as an integer.

    Searching (x, end] for a prime therefore searches a subset of the
    guaranteed window, so a hit certifies the gap bound at x.
    """
    lg = iv_log(iv_from_int(x), prec)
    rel = iv_div(iv_from_fraction(DUSART_GAP_COEFF, prec), iv_mul(lg, lg, prec), prec)
    end = iv_mul(iv_from_int(x), iv_add(iv_from_int(1), rel, prec), prec)
    end_int = int(end.lo)  # Fraction floor
    if end_int <= x:
        raise DomainError(f"degenerate gap window at {x}")
    return end_int


def _next_prime_above(x: int) -> int:
    """The least prime above x, for 64 <= x < 2^62.

    Sieves the blocks [lo, lo + 64) from lo = x + 1 with the primes up to
    the square root of each block's end, until a block holds a prime.
    Those primes lie below lo, so each multiple struck is composite.  A
    prime p >= 64 hits a block at most once, so one fancy store clears
    those and only the few smaller p loop.  Bertrand's postulate puts the
    prime below 2x < 2^63, so every position fits int64."""
    lo, table = x + 1, None
    while True:
        root = isqrt(lo + _GAP_BLOCK - 1)
        if table is None or table.limit < root:
            table = _gap_base_table(root)
        base = table.primes_in(2, root)
        flags = np.ones(_GAP_BLOCK, dtype=bool)
        first = (-lo) % base
        small = int(np.searchsorted(base, _GAP_BLOCK))
        for p, f in zip(base[:small].tolist(), first[:small].tolist()):
            flags[f::p] = False
        big = first[small:]
        flags[big[big < _GAP_BLOCK]] = False
        hit = np.flatnonzero(flags)
        if hit.size:
            return lo + int(hit[0])
        lo += _GAP_BLOCK


def _integer_window_end(x: int) -> int:
    """x + floor(x 10^12 / (5000 (bl 693148)^2)) with bl = x.bit_length(),
    an integer below x(1 + (1/5000)/log^2 x) for every x >= 2.

    Proof: x < 2^bl and ln 2 = 0.6931471805... < 0.693148, so
    0 < log x < bl ln 2 < bl 693148 / 10^6, and squaring gives
    log^2 x < (bl 693148)^2 / 10^12.  So x / (5000 log^2 x) exceeds
    x 10^12 / (5000 (bl 693148)^2), which exceeds its floor."""
    lg = x.bit_length() * _LN2_UP
    c = DUSART_GAP_COEFF
    return x + x * 10**12 * c.numerator // (c.denominator * lg * lg)


def dusart_gap_holds(x: int, prec: int = DEFAULT_PRECISION_BITS) -> bool:
    """True iff the least prime p above x lies in (x, end], with end the
    exact integer bound ``_integer_window_end(x)`` or, only when p lies
    past that, the certified interval bound ``dusart_window_end(x, prec)``.

    Both ends are below x(1 + (1/5000)/log^2 x), so True is a
    certificate.  The integer end falls short of the true end by at least
    2.3e-6 of the window, far more than the interval end's rounding at
    64 bits or more, so it is never above the interval end, and the
    answer is exactly whether p <= dusart_window_end(x, prec).  The
    fallback is needed: at x = DUSART_GAP_THRESHOLD, p = x + 235 lies
    past the integer end x + 232 and at the interval end x + 235, and
    so it does at the next two x.  False only means no prime was found
    in the conservatively shortened window, not that the underlying
    bound fails.

    Supports DUSART_GAP_THRESHOLD <= x < 2^62 and refuses larger x with
    ResourceBudgetError.  The sieving primes, up to sqrt(p) < 2^31.5,
    come from a shared table up to _GAP_BASE_LIMIT, or from a PrimeTable
    built for the call alone (whose build refuses limits above 2^32), of
    1.95 M primes (15.6 MB) at x = 10^15 and 50.8 M (406 MB) at 10^18.
    """
    if x < DUSART_GAP_THRESHOLD:
        raise DomainError(
            f"gap bound applies for x >= {DUSART_GAP_THRESHOLD}, "
            f"got {_int_text(x)}"
        )
    if x >= _GAP_MAX_X:
        raise ResourceBudgetError(
            f"gap window at {_int_text(x)} is above the supported 2^62")
    p = _next_prime_above(x)
    return p <= _integer_window_end(x) or p <= dusart_window_end(x, prec)
