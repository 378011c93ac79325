"""Run-length encoded factorizations over an initial segment of the primes.

A candidate n = p_1^{a_1} ... p_r^{a_r} is stored as runs of equal
exponents, so primorial-like numbers with millions of prime factors stay
O(#runs) in memory.  Analytic quantities (log n, rho = sigma(n)/n, G,
n/phi(n) and B6's density product rho / (n/phi) = Pi (1 - p^-(a+1))) are
certified enclosures built from exact big-integer products over cells of
512 consecutive prime positions on a fixed grid (positions 1..512,
513..1024, ...), taking one outward-rounded logarithm or division per
cell; one walk, ``_cell_pieces``, cuts the positive-exponent runs at the
cell edges for all of them.  The enclosures of a cell piece (the log of
its Pi p and that log times an exponent e, its n/phi block
Pi p / Pi (p - 1) and its density block Pi (p^(e+1) - 1) / (Pi p)^(e+1),
keyed by the piece, the precision and for e log and density the
exponent) are memoized on the PrimeTable.  Each forms the exact products
it needs from the piece's primes when it misses and drops them, so only
fixed-size enclosures stay resident; rho is folded from them as
P * n/phi, so it has no cell path of its own.  That memo serves the
primorial margin M(r), normalize's re-sums of log n and later calls on
the same table, which form products only for a cell piece no earlier
call has evaluated.  A block forms its own Pi p rather than share one
with the other blocks of its piece: a cold audit at r = 10^6 forms 5 more
products of about 5,880 that way, and its traced peak falls from 11.9 to
2.6 MiB.  A cold rho, which reads Pi p three times per piece, pays most
(big_g at r = 10^5: 1,006 products, not 604).  Per precision the memo
also holds the prefix Lambda_k of cell logs over the whole cells 1..k,
built in order as Lambda_{k-1} + cell k's log at 32 bits above the
precision, so log n takes a run over whole cells lo+1..hi,
hi - lo >= 2, as e (Lambda_hi - Lambda_lo) in O(1).  Such a span is
about as wide as hi cell logs, against hi - lo cell logs and
(hi - lo)^2 / 2 roundings for a walk: narrower, except near the end of a
table (76 times wider over the last two cells of a 10^6 table at 64
bits).  Cold, Lambda_hi reads the log of every whole cell up to hi: a
canonical candidate covers those cells anyway and pays one more log per
cell its runs split; a run past a long zero run pays once, per table and
precision, for the cells below it.  The log of one prime, which the
sigma-power ratio, the G ratios and normalize's carried log n
(``_log_after``) need, comes from the process cache ``iv_log_rational``.
One sigma-power ratio, (sigma(p^a)/p^a) / (sigma(p^b)/p^b), serves the G
ratios of normalize steps, where one map of exponent edits describes a
divide or a swap.  It is exact while the powers fit and an interval form
beyond, so candidates like 2^(10^14) still evaluate.  A G ratio is that
sigma part times the quotient of the two states' log log n, which a
normalize walk holds already.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    CandidateFormatError,
    DomainError,
    ResourceBudgetError,
    TableTooSmallError,
    _int_text,
)
from .intervals import (
    _EXACT_POW_BITS,
    DEFAULT_PRECISION_BITS,
    Comparison,
    IntervalScalar,
    _pow_bits,
    iv_add,
    iv_compare,
    iv_div,
    iv_exp,
    iv_from_int,
    iv_from_int_rounded,
    iv_log,
    iv_log_rational,
    iv_mul,
    iv_neg,
    iv_sub,
)
from .primes import PrimeTable

# Cell width in prime positions.  Exact products of a few thousand bits
# keep CPython's big-int multiplication cheap; wider cells cost
# superlinearly more.
_CHUNK = 512
_EXPLICIT_LIMIT = 1_000_000
_DEFAULT_MATERIALIZE_BITS = 1 << 22


class Run(NamedTuple):
    exponent: int
    count: int


@dataclass(frozen=True)
class CandidateFactorization:
    """Exponent vector over consecutive primes 2, 3, 5, ... as (exponent,
    count) runs.  Neighbouring runs never share an exponent, so each
    integer has one run list.  ``canonical`` means the run exponents
    strictly decrease, the shape every superabundant and colossally
    abundant number has; other shapes are representable but flagged."""

    runs: tuple[Run, ...]

    def __post_init__(self):
        for k, run in enumerate(self.runs):
            if run.count < 1:
                raise DomainError(f"run {k} has count {_int_text(run.count)}")
            if run.exponent < 0:
                raise DomainError(f"run {k} has negative exponent")
            if k and self.runs[k - 1].exponent == run.exponent:
                raise DomainError(f"runs {k - 1} and {k} share exponent "
                                  f"{_int_text(run.exponent)}; merge them")
        if not self.runs:
            raise DomainError("empty candidate (no positive exponent)")
        if self.runs[-1].exponent == 0:
            raise DomainError("trailing zero-exponent run")

    @property
    def canonical(self) -> bool:
        """Run exponents strictly decrease; the last is positive, so all
        are."""
        return all(a.exponent > b.exponent for a, b in zip(self.runs, self.runs[1:]))

    @classmethod
    def from_runs(cls, pairs: Sequence[tuple[int, int]]) -> "CandidateFactorization":
        """Canonical constructor: exponents strictly decreasing, all >= 1."""
        c = cls(runs=tuple(Run(int(e), int(n)) for e, n in pairs))
        if not c.canonical:
            a, b = next((a, b) for a, b in zip(c.runs, c.runs[1:])
                        if a.exponent < b.exponent)
            raise DomainError(
                "run exponents must strictly decrease, got "
                f"{_int_text(a.exponent)} then {_int_text(b.exponent)}"
                "; use from_exponents for non-canonical shapes")
        return c

    @classmethod
    def from_exponents(cls, exponents: Sequence[int]) -> "CandidateFactorization":
        """Explicit exponent list a_1, a_2, ...; any non-negative shape.

        Trailing zeros are stripped (a_i = 0 beyond the last prime factor by
        convention); the result is canonical only when it happens to have
        the canonical shape.
        """
        exps = [int(a) for a in exponents]
        if len(exps) > _EXPLICIT_LIMIT:
            raise ResourceBudgetError(
                f"explicit exponent list of {len(exps)} entries; "
                "use run-length form"
            )
        for i, a in enumerate(exps):
            if a < 0:
                raise DomainError(f"exponent at position {i + 1} is negative")
        return cls._from_pieces((a, 1) for a in exps)

    @classmethod
    def _from_pieces(cls, pieces: Iterable[tuple[int, int]]) -> "CandidateFactorization":
        """Consecutive (exponent, count) pieces, any non-negative shape.

        Equal neighbours merge into one run, pieces of count 0 vanish and
        trailing zero exponents are stripped."""
        runs: list[list[int]] = []
        for e, count in pieces:
            if not count:
                continue
            if runs and runs[-1][0] == e:
                runs[-1][1] += count
            else:
                runs.append([e, count])
        while runs and runs[-1][0] == 0:
            runs.pop()
        return cls(runs=tuple(Run(e, count) for e, count in runs))

    @property
    def r(self) -> int:
        """Number of prime positions covered (a_r >= 1 after stripping)."""
        return sum(run.count for run in self.runs)

    @property
    def omega(self) -> int:
        """Number of positions with a strictly positive exponent."""
        return sum(run.count for run in self.runs if run.exponent > 0)

    def a(self, i: int) -> int:
        """Exponent a_i, 1-based; 0 beyond the last position."""
        if i < 1:
            raise DomainError(f"position must be >= 1, got {_int_text(i)}")
        seen = 0
        for run in self.runs:
            seen += run.count
            if i <= seen:
                return run.exponent
        return 0

    def run_bounds(self) -> Iterator[tuple[int, int, int]]:
        """Yield (start, end, exponent) per run, positions 1-based inclusive."""
        start = 1
        for run in self.runs:
            end = start + run.count - 1
            yield start, end, run.exponent
            start = end + 1

    def exponents_list(self) -> list[int]:
        if self.r > _EXPLICIT_LIMIT:
            raise ResourceBudgetError(
                f"candidate spans {self.r} positions; too wide to expand"
            )
        return [a for run in self.runs for a in [run.exponent] * run.count]

    def s_index(self) -> Optional[int]:
        """Largest position with exponent >= 2, or None (squarefree)."""
        return max((end for _, end, e in self.run_bounds() if e >= 2), default=None)

    def to_json(self) -> dict:
        return {
            "runs": [
                {"exponent": run.exponent, "count": run.count}
                for run in self.runs
            ]
        }

    @classmethod
    def from_json(cls, obj: Union[dict, str]) -> "CandidateFactorization":
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as e:
                raise CandidateFormatError("<document>", f"not valid JSON: {e}")
            except ValueError:  # CPython parses no int of more than 4300 digits
                raise CandidateFormatError(
                    "<document>", "integer of more than 4300 digits")
            except RecursionError:
                raise CandidateFormatError("<document>", "nested too deeply")
        if not isinstance(obj, dict):
            raise CandidateFormatError("<document>", "candidate must be an object")
        for key in obj:
            if key not in ("runs", "exponents"):
                raise CandidateFormatError(str(key), "unknown field")
        if "runs" in obj and "exponents" in obj:
            raise CandidateFormatError(
                "<document>", 'candidate needs "runs" or "exponents", not both'
            )
        if "runs" in obj:
            runs = obj["runs"]
            if not isinstance(runs, list) or not runs:
                raise CandidateFormatError("runs", "must be a non-empty array")
            pairs = []
            for k, item in enumerate(runs):
                if not isinstance(item, dict):
                    raise CandidateFormatError(f"runs[{k}]", "must be an object")
                for key in item:
                    if key not in ("exponent", "count"):
                        raise CandidateFormatError(f"runs[{k}].{key}", "unknown field")
                for key in ("exponent", "count"):
                    v = item.get(key)
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise CandidateFormatError(
                            f"runs[{k}].{key}", "must be an integer"
                        )
                if item["count"] < 1:
                    raise CandidateFormatError(f"runs[{k}].count", "must be >= 1")
                if item["exponent"] < 0:
                    raise CandidateFormatError(
                        f"runs[{k}].exponent", "must be non-negative"
                    )
                pairs.append((item["exponent"], item["count"]))
            if not any(e for e, _ in pairs):
                raise CandidateFormatError("runs", "needs a positive exponent")
            return cls._from_pieces(pairs)
        if "exponents" in obj:
            exps = obj["exponents"]
            if not isinstance(exps, list) or not exps:
                raise CandidateFormatError("exponents", "must be a non-empty array")
            for i, a in enumerate(exps):
                if not isinstance(a, int) or isinstance(a, bool):
                    raise CandidateFormatError(f"exponents[{i}]", "must be an integer")
                if a < 0:
                    raise CandidateFormatError(f"exponents[{i}]", "must be non-negative")
            if not any(exps):
                raise CandidateFormatError("exponents", "needs a positive exponent")
            return cls.from_exponents(exps)
        raise CandidateFormatError(
            "<document>", 'candidate needs a "runs" or "exponents" field'
        )

    def __str__(self) -> str:
        return "*".join(
            (f"p[{_int_text(start)}..{_int_text(end)}]" if start != end
             else f"p[{_int_text(start)}]") + f"^{_int_text(e)}"
            for start, end, e in self.run_bounds()
        )


def _require_table(c: CandidateFactorization, t: PrimeTable) -> None:
    r = c.r
    if r > len(t):
        raise TableTooSmallError(
            f"candidate spans {_int_text(r)} primes, table holds {len(t)}", needed=r)


def _prod(values) -> int:
    """Balanced product of a non-empty list of Python ints."""
    items = list(values)
    while len(items) > 1:
        nxt = [items[i] * items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _cut(i: int, end: int) -> Iterator[tuple[int, int]]:
    """Yield (i, j) per piece of positions i..end cut at the cell edges."""
    while i <= end:
        j = min((i - 1) // _CHUNK * _CHUNK + _CHUNK, end)
        yield i, j
        i = j + 1


def _cell_pieces(c: CandidateFactorization) -> Iterator[tuple[int, int, int]]:
    """Yield (i, j, e) per piece of each positive-exponent run, cut at the
    cell edges; positions 1-based inclusive, in order."""
    return ((i, j, e) for start, end, e in c.run_bounds() if e
            for i, j in _cut(start, end))


def _log_cells(total: Union[IntervalScalar, int], t: PrimeTable,
               start: int, end: int, e: int, prec: int) -> IntervalScalar:
    """total + e Sum log p_i over start <= i <= end, one block per cell
    piece, memoized on the table."""
    for i, j in _cut(start, end):
        def cell_log() -> IntervalScalar:
            return t._memoized(("log", i, j, prec), lambda: iv_log(
                iv_from_int_rounded(_prod(t.slice(i, j).tolist()), prec), prec))

        block = cell_log() if e == 1 else t._memoized(
            ("elog", i, j, e, prec), lambda: iv_mul(iv_from_int(e), cell_log(), prec))
        total = iv_add(total, block, prec)
    return total


def log_n(c: CandidateFactorization, t: PrimeTable,
          prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Enclosure of log n = sum a_i log p_i (natural log).

    A run over the whole cells lo+1..hi, hi - lo >= 2, adds e (Lambda_hi -
    Lambda_lo) (module docstring) and walks its end pieces; others walk."""
    _require_table(c, t)
    total = iv_from_int(0)
    for start, end, e in c.run_bounds():
        lo, hi = (start + _CHUNK - 2) // _CHUNK, end // _CHUNK  # whole lo+1..hi
        if e and hi - lo < 2:
            total = _log_cells(total, t, start, end, e, prec)
        elif e:
            lam = t._memoized(("prefix", prec), lambda: [iv_from_int(0)])
            while len(lam) <= hi:  # Lambda_k = Lambda_{k-1} + cell k's log
                j = len(lam) * _CHUNK
                cell = _log_cells(0, t, j - _CHUNK + 1, j, 1, prec)
                lam.append(iv_add(lam[-1], cell, prec + 32))  # guard bits
            span = iv_sub(lam[hi], lam[lo], prec)
            total = _log_cells(total, t, start, lo * _CHUNK, e, prec)
            total = iv_add(total, span if e == 1 else iv_mul(e, span, prec), prec)
            total = _log_cells(total, t, hi * _CHUNK + 1, end, e, prec)
    return total


def _loglog_from(lg: IntervalScalar, prec: int) -> IntervalScalar:
    """log log n from an enclosure ``lg`` of log n."""
    if iv_compare(lg, 1) is not Comparison.CERTAINLY_GREATER:
        raise DomainError("log log n requires log n certainly > 1")
    return iv_log(lg, prec)


def rho(c: CandidateFactorization, t: PrimeTable,
        prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Enclosure of rho(n) = sigma(n)/n, folded as P * n/phi(n) with
    P = Pi (1 - p^-(a+1)): each cell piece's density block times its
    n/phi block."""
    _require_table(c, t)
    total = iv_from_int(1)
    for i, j, e in _cell_pieces(c):
        total = iv_mul(total, _density_piece(t, i, j, e, prec), prec)
        total = iv_mul(total, _nphi_block(t, i, j, prec), prec)
    return total


def _density_piece(t: PrimeTable, i: int, j: int, e: int,
                   prec: int) -> IntervalScalar:
    """Enclosure of Pi (1 - p^-(e+1)) = Pi (p^(e+1) - 1) / Pi p^(e+1) over
    p_i..p_j, the piece's share of rho / (n/phi), memoized on the table.
    From exact products while p_j^(e+1) fits _EXACT_POW_BITS, per prime
    with intervals beyond."""

    def fresh() -> IntervalScalar:
        primes = t.slice(i, j).tolist()
        if _pow_bits(primes[-1], e + 1) > _EXACT_POW_BITS:
            total = iv_from_int(1)
            for p in primes:
                tiny = iv_exp(iv_neg(iv_mul(iv_from_int(e + 1),
                                            iv_log_rational(p, prec), prec)), prec)
                total = iv_mul(total, iv_sub(iv_from_int(1), tiny, prec), prec)
            return total
        num = _prod([p ** (e + 1) - 1 for p in primes])
        den = _prod(primes) ** (e + 1)
        return iv_div(
            iv_from_int_rounded(num, prec), iv_from_int_rounded(den, prec), prec
        )

    return t._memoized(("b6", i, j, e, prec), fresh)


def _nphi_block(t: PrimeTable, i: int, j: int, prec: int) -> IntervalScalar:
    """Enclosure of Pi p/(p - 1) over p_i..p_j, memoized on the table."""

    def fresh() -> IntervalScalar:
        primes = t.slice(i, j).tolist()
        return iv_div(iv_from_int_rounded(_prod(primes), prec),
                      iv_from_int_rounded(_prod([p - 1 for p in primes]), prec),
                      prec)

    return t._memoized(("nphi", i, j, prec), fresh)


def n_over_phi(c: CandidateFactorization, t: PrimeTable,
               prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Enclosure of n/phi(n) = prod p/(p-1) over the prime support."""
    _require_table(c, t)
    total = iv_from_int(1)
    for i, j, _e in _cell_pieces(c):
        total = iv_mul(total, _nphi_block(t, i, j, prec), prec)
    return total


def big_g(c: CandidateFactorization, t: PrimeTable,
          prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Enclosure of G(n) = rho(n) / log log n; needs log n certainly > 1."""
    return iv_div(rho(c, t, prec), _loglog_from(log_n(c, t, prec), prec), prec)


def _sigma_ratio(p: int, a: int, b: int,
                 prec: int) -> Union[tuple[int, int], IntervalScalar]:
    """(sigma(p^a)/p^a) / (sigma(p^b)/p^b) = (p - p^(-a)) / (p - p^(-b)).

    The first form's (numerator, denominator), unreduced, while
    p^(max(a, b) + 1) fits _EXACT_POW_BITS; otherwise an enclosure of the
    second form, whose exponent-0 side is the exact p - 1.
    """
    if _pow_bits(p, max(a, b) + 1) <= _EXACT_POW_BITS:
        return (p ** (a + 1) - 1) * p**b, (p ** (b + 1) - 1) * p**a
    lp = iv_log_rational(p, prec)

    def side(e: int) -> IntervalScalar:
        if e == 0:
            return iv_from_int(p - 1)
        tiny = iv_exp(iv_neg(iv_mul(iv_from_int(e), lp, prec)), prec)
        return iv_sub(iv_from_int(p), tiny, prec)

    return iv_div(side(a), side(b), prec)


def _log_after(lg: IntervalScalar, edits: dict[int, int], primes: dict[int, int],
               prec: int) -> IntervalScalar:
    """log n' for n' = n * Pi p_i^edits[i], p_i = primes[i], each edit +1
    or -1, from an enclosure ``lg`` of log n: each log p_i in decreasing i."""
    for i, delta in sorted(edits.items(), reverse=True):
        lp = iv_log_rational(primes[i], prec)
        lg = iv_add(lg, lp, prec) if delta > 0 else iv_sub(lg, lp, prec)
    return lg


def _g_ratio_edit(before: dict[int, int], edits: dict[int, int],
                  primes: dict[int, int], prec: int, loglog: IntervalScalar,
                  loglog_after: IntervalScalar) -> IntervalScalar:
    """Enclosure of G(n) / G(n') for n' = n * Pi p_i^edits[i], each edit
    +1 or -1 and p_i = primes[i], from n's exponents before[i] and
    enclosures of log log n and log log n'.  The sigma ratios at the edited
    primes multiply into one exact integer fraction unless an exponent is
    huge, and only the two log log factors need enclosures, so the result
    is far tighter than dividing two independently computed G values.
    """
    num, den, parts = 1, 1, []
    for i, delta in edits.items():
        a = before[i]
        f = _sigma_ratio(primes[i], a, a + delta, prec)
        if isinstance(f, tuple):
            num, den = num * f[0], den * f[1]
        else:
            parts.append(f)
    sig = iv_div(num, den, prec)  # num / den rounded outward once
    for f in parts:
        sig = iv_mul(sig, f, prec)
    return iv_mul(sig, iv_div(loglog_after, loglog, prec), prec)


def _g_ratio_fresh(c: CandidateFactorization, edits: dict[int, int],
                   t: PrimeTable, prec: int) -> IntervalScalar:
    """_g_ratio_edit from a fresh sum of log n."""
    lg, before = log_n(c, t, prec), {i: c.a(i) for i in edits}
    primes = {i: t.nth_prime(i) for i in edits}
    return _g_ratio_edit(before, edits, primes, prec, _loglog_from(lg, prec),
                         _loglog_from(_log_after(lg, edits, primes, prec), prec))


def g_ratio_divide(c: CandidateFactorization, s: int, t: PrimeTable,
                   prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Enclosure of G(n) / G(n / p_s)."""
    if c.a(s) < 1:
        raise DomainError(f"p_{s} does not divide the candidate")
    _require_table(c, t)
    return _g_ratio_fresh(c, {s: -1}, t, prec)


def g_ratio_swap(c: CandidateFactorization, s: int, t: PrimeTable,
                 prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Enclosure of G(n) / G(n1) for n1 = n * p_s / p_r.

    Requires a_r == 1 (the top prime is removed entirely) and s < r; a_s
    may be 0, a swap into a hole.
    """
    r = c.r
    if r < 2:
        raise DomainError("swap needs at least two prime factors")
    if c.a(r) != 1:
        raise DomainError(f"swap requires a_r == 1, got a_r = {_int_text(c.a(r))}")
    if not 1 <= s < r:
        raise DomainError(f"swap index must satisfy 1 <= s < r = {r}")
    _require_table(c, t)
    return _g_ratio_fresh(c, {s: 1, r: -1}, t, prec)


def materialize(c: CandidateFactorization, t: PrimeTable,
                max_bits: int = _DEFAULT_MATERIALIZE_BITS) -> int:
    """The integer n itself; refuses when its bit length would exceed
    ``max_bits``."""
    _require_table(c, t)
    bits = 0
    for start, end, e in c.run_bounds():
        bits += e * (end - start + 1) * t.nth_prime(end).bit_length()
        if bits > max_bits:
            raise ResourceBudgetError(
                f"materialized candidate would exceed {max_bits} bits"
            )
    n = 1
    for i, j, e in _cell_pieces(c):
        n *= _prod(t.slice(i, j).tolist()) ** e
    return n


def is_sum_of_two_squares(c: CandidateFactorization, t: PrimeTable) -> bool:
    """True iff every prime = 3 (mod 4) in the support has even exponent."""
    _require_table(c, t)
    for start, end, e in c.run_bounds():
        if e % 2 == 0:
            continue
        block = t.slice(start, end)
        if bool((block % 4 == 3).any()):
            return False
    return True
