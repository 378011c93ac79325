"""Prime table construction, lookups, cache format, gap windows."""

import random
import struct
import zlib

import numpy as np
import pytest
import sympy

from robinaudit import primes
from robinaudit.errors import DomainError, TableTooSmallError
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
    assert t.count_up_to(100) == 25
    assert t.count_up_to(10**6) == 78498


def test_nth_prime_and_index_inverse(table_1e6):
    t = table_1e6
    assert t.nth_prime(1) == 2
    assert t.nth_prime(25) == 97
    assert t.prime_index(97) == 25
    for i in (1, 2, 100, 9592, 78498):
        assert t.prime_index(t.nth_prime(i)) == i


def test_index_of_composite_rejected(table_1e6):
    with pytest.raises(DomainError):
        table_1e6.prime_index(100)


def test_neighbor_lookups(table_1e6):
    t = table_1e6
    assert t.next_prime(2) == 3
    assert t.next_prime(100) == 101
    assert t.prev_prime(100) == 97
    assert t.prev_prime(3) == 2
    with pytest.raises(DomainError):
        t.prev_prime(2)


def test_out_of_range_raises_table_too_small(table_1e6):
    t = table_1e6
    with pytest.raises(TableTooSmallError):
        t.nth_prime(len(t) + 1)
    with pytest.raises(TableTooSmallError):
        t.next_prime(10**6)
    with pytest.raises(TableTooSmallError):
        t.prime_index(10**6 + 3)


def test_slice_is_one_based_inclusive(table_1e6):
    s = table_1e6.slice(1, 4)
    assert list(s) == [2, 3, 5, 7]
    assert table_1e6.slice(5, 4).size == 0  # empty range allowed


def test_table_is_read_only(tmp_path):
    built = PrimeTable.build(100)
    path = tmp_path / "primes.bin"
    built.save(path)
    for t in (built, PrimeTable.load(path)):
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


def test_cache_round_trip(tmp_path, table_1e6):
    path = tmp_path / "primes.bin"
    table_1e6.save(path)
    loaded = PrimeTable.load(path)
    assert loaded.limit == table_1e6.limit
    assert np.array_equal(loaded._primes, table_1e6._primes)


def test_cache_header_layout(tmp_path):
    t = PrimeTable.build(100)
    path = tmp_path / "p.bin"
    t.save(path)
    raw = path.read_bytes()
    assert raw[:5] == b"RBSV2"
    limit, count, crc = struct.unpack("<QQI", raw[5:25])
    assert limit == 100
    assert count == 25
    assert crc == zlib.crc32(raw[25:])
    # bit t of the body <-> odd number 2t+1
    bits = np.unpackbits(np.frombuffer(raw[25:], dtype=np.uint8), bitorder="little")
    odd_primes = [int(2 * i + 1) for i in np.flatnonzero(bits)]
    assert odd_primes == [p for p in _naive_primes(100) if p % 2]
    assert bits[0] == 0  # 1 is not prime


def test_cache_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXXX" + b"\x00" * 16)
    with pytest.raises(DomainError):
        PrimeTable.load(path)


def test_cache_old_layout_rejected(tmp_path):
    path = tmp_path / "old.bin"
    path.write_bytes(b"RBSV1" + struct.pack("<Q", 10) + b"\x6e")
    with pytest.raises(DomainError, match="rebuild"):
        PrimeTable.load(path)


@pytest.mark.parametrize("bit", [0, 1, 7, 3999])
def test_cache_flipped_bit_rejected(tmp_path, bit):
    path = tmp_path / "primes.bin"
    PrimeTable.build(8000).save(path)
    raw = bytearray(path.read_bytes())
    raw[25 + bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="checksum"):
        PrimeTable.load(path)


@pytest.mark.parametrize("delta", [-1, 1])
def test_cache_wrong_count_rejected(tmp_path, delta):
    t = PrimeTable.build(8000)
    path = tmp_path / "primes.bin"
    t.save(path)
    raw = bytearray(path.read_bytes())
    raw[13:21] = struct.pack("<Q", len(t) + delta)
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="header says"):
        PrimeTable.load(path)


@pytest.mark.parametrize("where", ["bitmap", "header"])
def test_cache_truncated_rejected(tmp_path, table_1e6, where):
    path = tmp_path / "primes.bin"
    table_1e6.save(path)
    raw = path.read_bytes()
    cut = 13 + (len(raw) - 13) // 2 if where == "bitmap" else 9
    path.write_bytes(raw[:cut])
    with pytest.raises(DomainError):
        PrimeTable.load(path)


def test_cache_extra_byte_rejected(tmp_path, table_1e6):
    path = tmp_path / "primes.bin"
    table_1e6.save(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DomainError):
        PrimeTable.load(path)


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

