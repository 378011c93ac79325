"""Prime tables and the certified prime-gap window check.

A PrimeTable is an immutable sorted array of all primes up to a limit,
built with a segmented sieve of Eratosthenes.  It can be saved to and
loaded from a compact bitmap cache.  Each table keeps a bounded memo of
enclosures derived from its primes alone (see ``PrimeTable._memoized``),
which lives and dies with the table.  dusart_gap_holds verifies that a
short interval above x contains a prime, using a conservatively rounded
window end so a True answer is a certificate.
"""

from __future__ import annotations

import struct
import zlib
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import DomainError, TableTooSmallError
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

_CACHE_MAGIC = b"RBSV2"
# The RBSV1 layout had no prime count and no checksum.
_OLD_CACHE_MAGIC = b"RBSV1"
_CACHE_HEADER = struct.Struct("<QQI")  # limit, pi(limit), CRC-32 of the bitmap

_SEGMENT = 1 << 20

# Entries a table's memo holds before it is emptied.  A corpus pass of the
# benchmark stores about 700 and a full_audit at r = 10^6 about 6,000 per
# precision, so this covers an audit at 128 bits and its 256-bit recheck
# (11,760 entries, 6.6 MB).
_MEMO_CAP = 1 << 14


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
        exactly what ``compute()`` would.  Past ``_MEMO_CAP`` entries the
        memo is emptied and starts again."""
        v = self._memo.get(key)
        if v is None:
            v = compute()
            if len(self._memo) >= _MEMO_CAP:
                self._memo.clear()
            self._memo[key] = v
        return v

    @classmethod
    def build(cls, limit: int) -> "PrimeTable":
        if limit < 2:
            return cls(max(limit, 0), np.empty(0, dtype=np.int64))
        return cls(limit, np.concatenate(list(_prime_chunks(limit))))

    def __len__(self) -> int:
        return int(self._primes.size)

    def nth_prime(self, i: int) -> int:
        """The i-th prime, 1-based: nth_prime(1) == 2."""
        if i < 1:
            raise DomainError(f"prime index must be >= 1, got {i}")
        if i > self._primes.size:
            raise TableTooSmallError(
                f"table holds {self._primes.size} primes, index {i} requested",
                needed=i,
            )
        return int(self._primes[i - 1])

    def prime_index(self, p: int) -> int:
        """Inverse of nth_prime; raises if p is not prime or beyond limit."""
        if p > self.limit:
            raise TableTooSmallError(
                f"{p} beyond table limit {self.limit}", needed=p
            )
        pos = int(np.searchsorted(self._primes, p))
        if pos >= self._primes.size or int(self._primes[pos]) != p:
            raise DomainError(f"{p} is not prime")
        return pos + 1

    def next_prime(self, x: int) -> int:
        """Smallest prime strictly greater than x."""
        pos = int(np.searchsorted(self._primes, x, side="right"))
        if pos >= self._primes.size:
            raise TableTooSmallError(
                f"no prime > {x} within table limit {self.limit}", needed=x + 1
            )
        return int(self._primes[pos])

    def prev_prime(self, x: int) -> int:
        """Largest prime strictly less than x."""
        pos = int(np.searchsorted(self._primes, x, side="left"))
        if pos == 0:
            raise DomainError(f"no prime < {x}")
        return int(self._primes[pos - 1])

    def count_up_to(self, x: int) -> int:
        """pi(x) for x <= limit."""
        if x > self.limit:
            raise TableTooSmallError(
                f"{x} beyond table limit {self.limit}", needed=x
            )
        return int(np.searchsorted(self._primes, x, side="right"))

    def slice(self, i: int, j: int) -> np.ndarray:
        """Primes p_i..p_j inclusive (1-based) as a read-only int64 view."""
        if i < 1 or j < i - 1:
            raise DomainError(f"bad prime index range [{i}, {j}]")
        if j > self._primes.size:
            raise TableTooSmallError(
                f"table holds {self._primes.size} primes, index {j} requested",
                needed=j,
            )
        return self._primes[i - 1 : j]

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Primes in [lo, hi] as a read-only int64 view."""
        if hi > self.limit:
            raise TableTooSmallError(
                f"{hi} beyond table limit {self.limit}", needed=hi
            )
        a = int(np.searchsorted(self._primes, lo, side="left"))
        b = int(np.searchsorted(self._primes, hi, side="right"))
        return self._primes[a:b]

    # Bitmap cache: magic, then little-endian uint64 limit and pi(limit)
    # and the uint32 CRC-32 of the bitmap, then packed bits for odd
    # numbers 1, 3, 5, ... up to limit (bit t <-> 2t+1, 1 iff prime).
    # CRC-32 catches every flipped bit and every burst of up to 32 bits.
    def save(self, path: Union[str, Path]) -> None:
        n_odd = (self.limit + 1) // 2
        bits = np.zeros(n_odd, dtype=np.uint8)
        odd = self._primes[self._primes > 2]
        bits[(odd - 1) // 2] = 1
        packed = np.packbits(bits, bitorder="little").tobytes()
        with open(path, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(_CACHE_HEADER.pack(self.limit, len(self),
                                        zlib.crc32(packed)))
            fh.write(packed)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PrimeTable":
        with open(path, "rb") as fh:
            magic = fh.read(len(_CACHE_MAGIC))
            if magic == _OLD_CACHE_MAGIC:
                raise DomainError(
                    "prime cache has the old RBSV1 layout with no checksum; "
                    "rebuild it with PrimeTable.save"
                )
            if magic != _CACHE_MAGIC:
                raise DomainError(f"bad prime cache magic {magic!r}")
            head = fh.read(_CACHE_HEADER.size)
            if len(head) != _CACHE_HEADER.size:
                raise DomainError("prime cache header is truncated")
            limit, count, crc = _CACHE_HEADER.unpack(head)
            body = fh.read()
        n_odd = (limit + 1) // 2
        if len(body) != (n_odd + 7) // 8:
            raise DomainError(
                f"prime cache bitmap has {len(body)} bytes, limit {limit} "
                f"needs {(n_odd + 7) // 8}"
            )
        if zlib.crc32(body) != crc:
            raise DomainError("prime cache bitmap does not match its checksum")
        bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8),
                             bitorder="little")[:n_odd]
        odd = (2 * np.flatnonzero(bits) + 1).astype(np.int64)
        primes = np.concatenate([np.array([2], dtype=np.int64), odd]) if limit >= 2 else odd
        if primes.size != count:
            raise DomainError(
                f"prime cache holds {primes.size} primes, its header says {count}"
            )
        return cls(int(limit), primes)


_GAP_BASE_TABLE: Optional[PrimeTable] = None


def _gap_base_primes(root: int) -> np.ndarray:
    global _GAP_BASE_TABLE
    if _GAP_BASE_TABLE is None or _GAP_BASE_TABLE.limit < root:
        _GAP_BASE_TABLE = PrimeTable.build(max(root, 40000))
    return _GAP_BASE_TABLE.primes_in(2, root)


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


def dusart_gap_holds(x: int, prec: int = DEFAULT_PRECISION_BITS) -> bool:
    """True iff a prime lies in (x, end] with end the certified window bound.

    True is a certificate.  False only means no prime was found in the
    conservatively shortened window, not that the underlying bound fails.
    """
    if x < DUSART_GAP_THRESHOLD:
        raise DomainError(
            f"gap bound applies for x >= {DUSART_GAP_THRESHOLD}, got {x}"
        )
    end = dusart_window_end(x, prec)
    # Sieve just the window (x, end]: a prime p >= size hits it at most once,
    # so one fancy store clears those and only the few smaller p loop.
    base = _gap_base_primes(isqrt(end))
    lo = x + 1
    size = end - lo + 1
    flags = np.ones(size, dtype=bool)
    first = np.maximum(base * base, lo + (-lo) % base) - lo
    small = int(np.searchsorted(base, size))
    for p, f in zip(base[:small].tolist(), first[:small].tolist()):
        flags[f::p] = False
    big = first[small:]
    flags[big[big < size]] = False
    return bool(flags.any())
