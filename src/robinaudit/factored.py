"""Run-length encoded factorizations over an initial segment of the primes.

A candidate n = p_1^{a_1} ... p_r^{a_r} is stored as runs of equal
exponents, so primorial-like numbers with millions of prime factors stay
O(#runs) in memory.  Analytic quantities (log n, rho = sigma(n)/n, G,
n/phi(n)) are certified enclosures built from exact big-integer products
over cells of 512 consecutive prime positions on a fixed grid (positions
1..512, 513..1024, ...; a run is cut at run ends and cell edges), taking
one outward-rounded logarithm or division per cell.  Because cells sit at
fixed positions, the products Pi p, Pi (p - 1) and Pi (p + 1) of a cell do
not depend on the exponents: one audit context forms each of them at
most once and shares it between log n, rho and n/phi.  The enclosures
made from them (the log of a cell's Pi p, a cell's rho and n/phi ratio
blocks, keyed by the cell, the precision and for rho the exponent) are
memoized on the PrimeTable.  That memo serves the primorial margin M(r),
every normalize step and later calls on the same table, which form a
product only for a cell piece no earlier call has evaluated.
Exponents too large for exact powers fall back to interval forms, so
candidates like 2^(10^14) still evaluate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    CandidateFormatError,
    DomainError,
    ResourceBudgetError,
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
    iv_from_fraction,
    iv_from_int,
    iv_from_int_rounded,
    iv_log,
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
    count) runs.  ``canonical`` means exponents are non-increasing and
    positive, the shape every superabundant and colossally abundant number
    has; other shapes are representable but flagged."""

    runs: tuple[Run, ...]
    canonical: bool

    def __post_init__(self):
        for k, run in enumerate(self.runs):
            if run.count < 1:
                raise DomainError(f"run {k} has count {run.count}")
            if run.exponent < 0:
                raise DomainError(f"run {k} has negative exponent")
        if self.runs and self.runs[-1].exponent == 0:
            raise DomainError("trailing zero-exponent run")

    @classmethod
    def from_runs(cls, pairs: Sequence[tuple[int, int]]) -> "CandidateFactorization":
        """Canonical constructor: exponents strictly decreasing, all >= 1."""
        runs = tuple(Run(int(e), int(c)) for e, c in pairs)
        for k, run in enumerate(runs):
            if run.exponent < 1:
                raise DomainError(
                    f"run {k} exponent {run.exponent} < 1; use from_exponents "
                    "for non-canonical shapes"
                )
            if k and runs[k - 1].exponent <= run.exponent:
                raise DomainError(
                    f"run exponents must strictly decrease, got "
                    f"{runs[k - 1].exponent} then {run.exponent}; use "
                    "from_exponents for non-canonical shapes"
                )
        return cls(runs=runs, canonical=True)

    @classmethod
    def from_exponents(cls, exponents: Sequence[int]) -> "CandidateFactorization":
        """Explicit exponent list a_1, a_2, ...; any non-negative shape.

        Trailing zeros are stripped (a_i = 0 beyond the last prime factor by
        convention); the result is flagged non-canonical unless it happens
        to have the canonical shape.
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
        trailing zero exponents are stripped; the result is flagged
        canonical exactly when its run exponents strictly decrease (the last
        one is positive, so all are)."""
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
        if not runs:
            raise DomainError("empty candidate (all exponents zero)")
        canonical = all(runs[k][0] > runs[k + 1][0] for k in range(len(runs) - 1))
        return cls(runs=tuple(Run(e, count) for e, count in runs),
                   canonical=canonical)

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
            raise DomainError(f"position must be >= 1, got {i}")
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
        out = []
        for run in self.runs:
            out.extend([run.exponent] * run.count)
        return out

    def s_index(self) -> Optional[int]:
        """Largest position with exponent >= 2, or None (squarefree)."""
        start = 1
        best = None
        for run in self.runs:
            end = start + run.count - 1
            if run.exponent >= 2:
                best = end
            start = end + 1
        return best

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
            exps_decreasing = all(
                pairs[k][0] > pairs[k + 1][0] for k in range(len(pairs) - 1)
            )
            if exps_decreasing and all(e >= 1 for e, _ in pairs):
                return cls.from_runs(pairs)
            if sum(c for _, c in pairs) > _EXPLICIT_LIMIT:
                raise CandidateFormatError(
                    "runs", "non-canonical run list too wide to expand"
                )
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
            return cls.from_exponents(exps)
        raise CandidateFormatError(
            "<document>", 'candidate needs a "runs" or "exponents" field'
        )

    def __str__(self) -> str:
        return "*".join(
            f"p[{start}..{end}]^{e}" if start != end else f"p[{start}]^{e}"
            for start, end, e in self.run_bounds()
        )


def _require_table(c: CandidateFactorization, t: PrimeTable) -> None:
    r = c.r
    if r > len(t):
        from .errors import TableTooSmallError

        raise TableTooSmallError(
            f"candidate spans {r} primes, table holds {len(t)}", needed=r
        )


def _prod(values) -> int:
    """Balanced product of a list of Python ints."""
    items = list(values)
    if not items:
        return 1
    while len(items) > 1:
        nxt = [items[i] * items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _chunks(start: int, end: int) -> Iterator[tuple[int, int]]:
    """Split positions start..end (1-based inclusive) at the cell edges
    k * _CHUNK, yielding (i, j) per piece."""
    i = start
    while i <= end:
        j = min((i - 1) // _CHUNK * _CHUNK + _CHUNK, end)
        yield i, j
        i = j + 1


class _Products:
    """Exact products Pi (p + shift), shift in {-1, 0, 1}, over p_i..p_j,
    each formed on first use.  Keyed by prime positions only, so one
    object serves every candidate over the same primes.  Callers create
    one per call or audit context and drop it with that: the big ints
    stay out of the table's memo, which keeps only the fixed-size
    enclosures made from them, so a call whose cells are all memoized
    forms no product at all."""

    def __init__(self):
        self._cells: dict[tuple[int, int, int], int] = {}

    def get(self, t: PrimeTable, i: int, j: int, shift: int = 0) -> int:
        key = (i, j, shift)
        v = self._cells.get(key)
        if v is None:
            primes = t.slice(i, j).tolist()
            v = _prod([p + shift for p in primes] if shift else primes)
            self._cells[key] = v
        return v


def log_n(c: CandidateFactorization, t: PrimeTable,
          prec: int = DEFAULT_PRECISION_BITS, *,
          products: Optional[_Products] = None) -> IntervalScalar:
    """Enclosure of log n = sum a_i log p_i (natural log)."""
    _require_table(c, t)
    products = _Products() if products is None else products
    total = iv_from_int(0)
    for start, end, e in c.run_bounds():
        if e == 0:
            continue
        for i, j in _chunks(start, end):
            block = t._memoized(
                ("log", i, j, prec),
                lambda: iv_log(iv_from_int_rounded(products.get(t, i, j), prec),
                               prec),
            )
            if e != 1:
                block = iv_mul(iv_from_int(e), block, prec)
            total = iv_add(total, block, prec)
    if not c.runs:
        raise DomainError("empty candidate has no factorization")
    return total


def _loglog_from(lg: IntervalScalar, prec: int) -> IntervalScalar:
    if iv_compare(lg, 1) is not Comparison.CERTAINLY_GREATER:
        raise DomainError("log log n requires log n certainly > 1")
    return iv_log(lg, prec)


def _sigma_factor_interval(p: int, e: int, prec: int) -> IntervalScalar:
    """Enclosure of sigma(p^e)/p^e = (p - p^(-e)) / (p - 1)."""
    tiny = iv_exp(
        iv_neg(iv_mul(iv_from_int(e), iv_log(iv_from_int(p), prec), prec)), prec
    )
    return iv_div(iv_sub(iv_from_int(p), tiny, prec), iv_from_int(p - 1), prec)


def rho(c: CandidateFactorization, t: PrimeTable,
        prec: int = DEFAULT_PRECISION_BITS, *,
        products: Optional[_Products] = None) -> IntervalScalar:
    """Enclosure of rho(n) = sigma(n)/n."""
    _require_table(c, t)
    products = _Products() if products is None else products
    total = iv_from_int(1)
    for start, end, e in c.run_bounds():
        if e == 0:
            continue
        for i, j in _chunks(start, end):
            if e != 1 and _pow_bits(t.nth_prime(j), e + 1) > _EXACT_POW_BITS:
                for p in t.slice(i, j).tolist():
                    total = iv_mul(total, _sigma_factor_interval(p, e, prec), prec)
                continue
            block = t._memoized(
                ("rho", i, j, e, prec),
                lambda: _rho_block(t, products, i, j, e, prec),
            )
            total = iv_mul(total, block, prec)
    return total


def _rho_block(t: PrimeTable, products: _Products, i: int, j: int, e: int,
               prec: int) -> IntervalScalar:
    """Enclosure of Pi sigma(p^e)/p^e over p_i..p_j from exact products;
    needs p_j^(e+1) within _EXACT_POW_BITS when e > 1."""
    if e == 1:
        num = products.get(t, i, j, 1)
        den = products.get(t, i, j)
    else:
        num = _prod([p ** (e + 1) - 1 for p in t.slice(i, j).tolist()])
        # Pi p^e (p - 1)
        den = products.get(t, i, j) ** e * products.get(t, i, j, -1)
    return iv_div(
        iv_from_int_rounded(num, prec), iv_from_int_rounded(den, prec), prec
    )


def n_over_phi(c: CandidateFactorization, t: PrimeTable,
               prec: int = DEFAULT_PRECISION_BITS, *,
               products: Optional[_Products] = None) -> IntervalScalar:
    """Enclosure of n/phi(n) = prod p/(p-1) over the prime support."""
    _require_table(c, t)
    products = _Products() if products is None else products
    total = iv_from_int(1)
    for start, end, e in c.run_bounds():
        if e == 0:
            continue
        for i, j in _chunks(start, end):
            block = t._memoized(
                ("nphi", i, j, prec),
                lambda: iv_div(iv_from_int_rounded(products.get(t, i, j), prec),
                               iv_from_int_rounded(products.get(t, i, j, -1), prec),
                               prec),
            )
            total = iv_mul(total, block, prec)
    return total


def big_g(c: CandidateFactorization, t: PrimeTable,
          prec: int = DEFAULT_PRECISION_BITS) -> IntervalScalar:
    """Enclosure of G(n) = rho(n) / log log n; needs log n certainly > 1."""
    products = _Products()
    lg = log_n(c, t, prec, products=products)
    return iv_div(rho(c, t, prec, products=products), _loglog_from(lg, prec), prec)


def _sigma_ratio_divide(p: int, a: int, prec: int) -> Union[Fraction, IntervalScalar]:
    """rho(n)/rho(n / p) when p has exponent a >= 1 in n.

    Exactly (p^(a+1) - 1) / (p (p^a - 1)); interval form for huge a.
    """
    if _pow_bits(p, a + 1) <= _EXACT_POW_BITS:
        return Fraction(p ** (a + 1) - 1, p * (p**a - 1))
    # (p - p^(-a)) / (p - p^(1-a))
    lp = iv_log(iv_from_int(p), prec)
    t_a = iv_exp(iv_neg(iv_mul(iv_from_int(a), lp, prec)), prec)
    t_a1 = iv_exp(iv_neg(iv_mul(iv_from_int(a - 1), lp, prec)), prec)
    return iv_div(
        iv_sub(iv_from_int(p), t_a, prec),
        iv_sub(iv_from_int(p), t_a1, prec),
        prec,
    )


def g_ratio_divide(c: CandidateFactorization, s: int, t: PrimeTable,
                   prec: int = DEFAULT_PRECISION_BITS, *,
                   lg: Optional[IntervalScalar] = None) -> IntervalScalar:
    """Enclosure of G(n) / G(n / p_s); ``lg`` is an enclosure of log n at
    ``prec`` when the caller already has one.

    Computed from local data: the sigma ratio at p_s is exact rational and
    only the two log log factors need enclosures, so the result is far
    tighter than dividing two independently computed G values.
    """
    a = c.a(s)
    if a < 1:
        raise DomainError(f"p_{s} does not divide the candidate")
    _require_table(c, t)
    p = t.nth_prime(s)
    if lg is None:
        lg = log_n(c, t, prec)
    lg1 = iv_sub(lg, iv_log(iv_from_int(p), prec), prec)
    ratio_sigma = _sigma_ratio_divide(p, a, prec)
    if not isinstance(ratio_sigma, IntervalScalar):
        ratio_sigma = iv_from_fraction(ratio_sigma, prec)
    ratio_loglog = iv_div(_loglog_from(lg1, prec), _loglog_from(lg, prec), prec)
    return iv_mul(ratio_sigma, ratio_loglog, prec)


def g_ratio_swap(c: CandidateFactorization, s: int, t: PrimeTable,
                 prec: int = DEFAULT_PRECISION_BITS, *,
                 lg: Optional[IntervalScalar] = None) -> IntervalScalar:
    """Enclosure of G(n) / G(n1) for n1 = n * p_s / p_r; ``lg`` as for
    g_ratio_divide.

    Requires a_r == 1 (the top prime is removed entirely) and s < r.
    """
    r = c.r
    if r < 2:
        raise DomainError("swap needs at least two prime factors")
    if c.a(r) != 1:
        raise DomainError(f"swap requires a_r == 1, got a_r = {c.a(r)}")
    if not 1 <= s < r:
        raise DomainError(f"swap index must satisfy 1 <= s < r = {r}")
    a = c.a(s)
    if a < 1:
        raise DomainError(f"p_{s} does not divide the candidate")
    _require_table(c, t)
    p_s = t.nth_prime(s)
    p_r = t.nth_prime(r)
    # rho(n)/rho(n1) = p_s (p_s^(a+1) - 1)(p_r + 1) / ((p_s^(a+2) - 1) p_r)
    if _pow_bits(p_s, a + 2) <= _EXACT_POW_BITS:
        ratio_sigma = Fraction(
            p_s * (p_s ** (a + 1) - 1) * (p_r + 1),
            (p_s ** (a + 2) - 1) * p_r,
        )
        sig_iv = iv_from_fraction(ratio_sigma, prec)
    else:
        lp = iv_log(iv_from_int(p_s), prec)
        t_a1 = iv_exp(iv_neg(iv_mul(iv_from_int(a + 1), lp, prec)), prec)
        t_a2 = iv_exp(iv_neg(iv_mul(iv_from_int(a + 2), lp, prec)), prec)
        core = iv_div(
            iv_sub(iv_from_int(1), t_a1, prec),
            iv_sub(iv_from_int(1), t_a2, prec),
            prec,
        )
        sig_iv = iv_mul(core, iv_from_fraction(Fraction(p_r + 1, p_r), prec), prec)
    if lg is None:
        lg = log_n(c, t, prec)
    lg1 = iv_add(
        iv_sub(lg, iv_log(iv_from_int(p_r), prec), prec),
        iv_log(iv_from_int(p_s), prec),
        prec,
    )
    ratio_loglog = iv_div(_loglog_from(lg1, prec), _loglog_from(lg, prec), prec)
    return iv_mul(sig_iv, ratio_loglog, prec)


def materialize(c: CandidateFactorization, t: PrimeTable,
                max_bits: int = _DEFAULT_MATERIALIZE_BITS) -> int:
    """The integer n itself; refuses when its bit length would exceed
    ``max_bits``."""
    _require_table(c, t)
    bits = 0
    for start, end, e in c.run_bounds():
        if e == 0:
            continue
        p_hi = t.nth_prime(end)
        bits += e * (end - start + 1) * p_hi.bit_length()
        if bits > max_bits:
            raise ResourceBudgetError(
                f"materialized candidate would exceed {max_bits} bits"
            )
    n = 1
    for start, end, e in c.run_bounds():
        if e == 0:
            continue
        for i, j in _chunks(start, end):
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
