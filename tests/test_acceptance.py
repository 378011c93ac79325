"""Acceptance gate: one test per published criterion, run with -v to get
one pass/fail line each.

Oracles are either frozen literature values, independent brute-force
recomputations, or exact integer certifications at a higher working
precision than the code under test.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from robinaudit.audit import (
    compute_l,
    compute_u,
    full_audit,
    normalize,
    report_to_json_str,
    run_check,
)
from robinaudit.factored import (
    CandidateFactorization,
    _cell_pieces,
    big_g,
    g_ratio_divide,
    g_ratio_swap,
    log_n,
    materialize,
)
from robinaudit.generators import (
    ca_sweep,
    superabundant_up_to,
    verify_range,
)
from robinaudit.intervals import (
    _EXACT_POW_BITS,
    Comparison,
    _pow_bits,
    constants,
    iv_compare,
    iv_from_int,
)
from robinaudit.primes import dusart_gap_holds, DUSART_GAP_THRESHOLD

from oracles import density_product_exact, sigma_divisor_pairs

# the 26 classical exceptions below 5041, frozen from the literature
EXCEPTIONS_ORACLE = [
    3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72, 84,
    120, 180, 240, 360, 720, 840, 2520, 5040,
]

SA_FIRST_TEN = [1, 2, 4, 6, 12, 24, 36, 48, 60, 120]
CA_UP_TO_1E6 = [2, 6, 12, 60, 120, 360, 2520, 5040, 55440, 720720]


@pytest.fixture(scope="module")
def sa_million():
    return superabundant_up_to(10**6)


def _theta_float(t, r):
    return float(sum(math.log(p) for p in t.slice(1, r).tolist()))


def _boosted_primorial(t, r, extra, prec=128):
    """2^k * (primorial over r primes) with k forced until log n is
    certainly above p_r, then `extra` more."""
    p_r = t.nth_prime(r)
    k = max(2, math.ceil((p_r - _theta_float(t, r)) / math.log(2)) + 1)
    while True:
        c = CandidateFactorization.from_runs([(k, 1), (1, r - 1)])
        if iv_compare(log_n(c, t, prec), iv_from_int(p_r)) \
                is Comparison.CERTAINLY_GREATER:
            return CandidateFactorization.from_runs([(k + extra, 1), (1, r - 1)])
        k += 1


def test_criterion_1_exhaustive_range_certification(table_1e6):
    t0 = time.monotonic()
    clean = verify_range(5041, 10**7)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"range sweep took {elapsed:.1f}s"
    assert clean.checked == 10**7 - 5041 + 1
    assert clean.violations == [] and clean.unknowns == []

    classical = verify_range(3, 5040)
    assert [r.n for r in classical.violations] == EXCEPTIONS_ORACLE
    assert classical.unknowns == []
    # every flagged sigma certified above the threshold's upper endpoint
    for rec in classical.violations:
        assert Fraction(rec.sigma) > rec.threshold.hi


def test_criterion_2_straddling_pair(table_1e6):
    eg = constants(128).exp_gamma
    g_5040 = big_g(CandidateFactorization.from_exponents([4, 2, 1, 1]),
                   table_1e6, 128)
    assert Fraction("1.7905") <= g_5040.lo and g_5040.hi <= Fraction("1.7915")
    assert iv_compare(g_5040, eg) is Comparison.CERTAINLY_GREATER

    g_55440 = big_g(CandidateFactorization.from_exponents([4, 2, 1, 1, 1]),
                    table_1e6, 128)
    assert Fraction("1.7510") <= g_55440.lo and g_55440.hi <= Fraction("1.7516")
    assert iv_compare(g_55440, eg) is Comparison.CERTAINLY_LESS


def test_criterion_3_abundance_records_match_brute_force(sa_million):
    best_num, best_den = 0, 1
    oracle = []
    seg = 1 << 18
    lo = 1
    while lo <= 10**6:
        hi = min(10**6, lo + seg - 1)
        for off, s in enumerate(sigma_divisor_pairs(lo, hi).tolist()):
            n = lo + off
            if s * best_den > best_num * n:
                best_num, best_den = s, n
                oracle.append((n, s))
        lo = hi + 1
    assert [(r.n, r.sigma) for r in sa_million] == oracle
    assert [r.n for r in sa_million[:10]] == SA_FIRST_TEN


def test_criterion_4_extremal_candidates_nest_into_records(
        table_1e6, sa_million):
    cands = ca_sweep(10, table_1e6)
    values = [materialize(c, table_1e6) for c in cands]
    assert values == CA_UP_TO_1E6
    sa_set = {r.n for r in sa_million}
    assert set(values) <= sa_set
    for c in cands:
        for check_id in ("shape_B1", "shape_B3", "shape_B4", "lower_window_4"):
            status = run_check(check_id, c, table_1e6).status
            assert status in ("pass", "not_applicable"), (
                f"{check_id} on {c}: {status}"
            )


def test_criterion_5_bracket_floor_consistency(table_1e7):
    t = table_1e7
    exceptions = 0
    checked = 0
    for r in (25, 50, 100, 168, 250, 400, 600, 800, 1000, 1229):
        assert t.nth_prime(r) <= 10**4
        for j in range(5):
            c = _boosted_primorial(t, r, j)
            lg_hi = log_n(c, t, 512)
            indices = sorted({1, 2, 3, r // 4, r // 2, 3 * r // 4, r} - {0})
            for i in indices:
                p = t.nth_prime(i)
                k = compute_u(c, i, t)
                checked += 1
                # independent floor certification at 4x precision
                if not (Fraction(p) ** k <= k * lg_hi.lo
                        and k * lg_hi.hi < Fraction(p) ** (k + 1)):
                    exceptions += 1
    assert checked >= 300
    assert exceptions == 0


def test_criterion_6_step_ratios_certified_below_one(table_1e6):
    t = table_1e6
    one = iv_from_int(1)
    failures = []

    # family 1: first exponent pushed above its window bound, divide at 1
    for r in range(30, 230):
        c = _boosted_primorial(t, r, 0)
        while c.a(1) <= compute_u(c, 1, t):
            c = CandidateFactorization.from_runs(
                [(c.a(1) + 1, 1), (1, r - 1)]
            )
        ratio = g_ratio_divide(c, 1, t, 128)
        if iv_compare(ratio, one) is not Comparison.CERTAINLY_LESS:
            failures.append(("boost", r))

    # family 2: primorial below the log window, divide at the top prime
    for r in range(4, 204):
        c = CandidateFactorization.from_runs([(1, r)])
        p_r = t.nth_prime(r)
        assert iv_compare(log_n(c, t, 128), iv_from_int(p_r)) \
            is Comparison.CERTAINLY_LESS
        ratio = g_ratio_divide(c, r, t, 128)
        if iv_compare(ratio, one) is not Comparison.CERTAINLY_LESS:
            failures.append(("primorial-top", r))

    # family 3: first exponent below its lower bound, swap top prime down
    for r in range(5, 205):
        c = CandidateFactorization.from_runs([(1, r)])
        assert compute_l(t.nth_prime(r), 2) > 1
        ratio = g_ratio_swap(c, 1, t, 128)
        if iv_compare(ratio, one) is not Comparison.CERTAINLY_LESS:
            failures.append(("swap", r))

    assert failures == [], failures[:10]


def _intervals(node, path, out):
    if isinstance(node, dict):
        if set(node) == {"lo", "hi"}:
            out[path] = Fraction(node["lo"]), Fraction(node["hi"])
            return
        for key in node:
            _intervals(node[key], f"{path}/{key}", out)
    elif isinstance(node, list):
        for idx, item in enumerate(node):
            _intervals(item, f"{path}/{idx}", out)


def _precision_corpus(t):
    """Candidates of criterion 7: tiny, wide, a huge exponent (interval
    routes of B2/B4/D4) and one the table does not cover."""
    return [
        CandidateFactorization.from_exponents([4, 2, 1, 1]),
        CandidateFactorization.from_exponents([3, 2, 1, 1]),
        CandidateFactorization.from_exponents([4, 2, 1, 1, 1]),
        CandidateFactorization.from_exponents([1] * 6),
        CandidateFactorization.from_exponents([4, 2, 1, 2]),
        CandidateFactorization.from_exponents([30, 13, 5, 3, 2, 2] + [1] * 162),
        CandidateFactorization.from_runs(
            [(150_000_000_000_000, 1), (2, 1), (1, 3)]
        ),
        _boosted_primorial(t, 100, 0),
        CandidateFactorization.from_runs(
            [(20, 1), (13, 1), (8, 1), (7, 1), (6, 1), (1, 10**9)]
        ),
    ]


def test_criterion_7_precision_doubling(table_1e6):
    for c in _precision_corpus(table_1e6):
        lo_rep = full_audit(c, table_1e6, 128)
        hi_rep = full_audit(c, table_1e6, 256)
        stable = []
        for (cid, v_lo), (_, v_hi) in zip(lo_rep.checks, hi_rep.checks):
            if v_lo.status in ("pass", "fail"):
                assert v_hi.status == v_lo.status, f"{cid} flipped on {c}"
            if v_lo.status == v_hi.status:
                stable.append((cid, v_lo, v_hi))
        for cid, v_lo, v_hi in stable:
            iv_lo: dict = {}
            iv_hi: dict = {}
            _intervals(v_lo.to_json()["witness"], cid, iv_lo)
            _intervals(v_hi.to_json()["witness"], cid, iv_hi)
            for path in set(iv_lo) & set(iv_hi):
                (a, b), (x, y) = iv_lo[path], iv_hi[path]
                if a == b and path == "density_B6/product":
                    _assert_exact_b6_prefix(c, table_1e6, v_lo, a)
                    assert x == y == a, f"exact witness moved at {path} on {c}"
                    continue
                assert a < b, f"degenerate witness at {path} on {c}"
                assert y - x < b - a, f"width did not shrink at {path} on {c}"


def _assert_exact_b6_prefix(c, t, verdict, point):
    """B6's product may be a point, such as 31/32 after the piece 2^4, only
    where it equals the exact product over the pieces read, all of them
    from exact powers."""
    read = list(_cell_pieces(c))[:verdict.to_json()["witness"]["pieces_read"]]
    assert all(_pow_bits(t.nth_prime(j), e + 1) <= _EXACT_POW_BITS
               for _, j, e in read), f"point product from a huge power on {c}"
    assert point == density_product_exact(c, t, upto=read[-1][1]), \
        f"point product is not the exact prefix on {c}"


def test_criterion_8_gap_certificates_in_budget():
    rng = random.Random(20260814)
    xs = [DUSART_GAP_THRESHOLD, 10**9]
    xs += [rng.randrange(DUSART_GAP_THRESHOLD, 10**9 + 1) for _ in range(998)]
    t0 = time.monotonic()
    for x in xs:
        assert dusart_gap_holds(x), f"gap window failed at {x}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"gap sweep took {elapsed:.1f}s"


def test_criterion_9_fixture_reports(table_1e6):
    rep_5040 = full_audit(
        CandidateFactorization.from_exponents([4, 2, 1, 1]), table_1e6
    )
    assert set(rep_5040.excluded_by) >= {
        "size_floor_C", "log_window_2", "vojak_D1", "exponents_E",
    }
    rep_primorial = full_audit(
        CandidateFactorization.from_exponents([1] * 6), table_1e6
    )
    assert "lower_window_4" in rep_primorial.excluded_by

    for c in (CandidateFactorization.from_exponents([4, 2, 1, 1]),
              CandidateFactorization.from_exponents([1] * 6)):
        first = report_to_json_str(full_audit(c, table_1e6))
        second = report_to_json_str(full_audit(c, table_1e6))
        assert first == second


def _perturbations():
    bases = [
        [5, 3, 2, 1, 1, 1],          # 21621600
        [5, 3, 2, 1, 1, 1, 1],       # 367567200
        [6, 4, 2, 2, 1, 1, 1, 1],
    ]
    out = []
    for base in bases:
        for i in range(len(base)):
            inc = list(base)
            inc[i] += 1
            out.append(inc)
            dec = list(base)
            dec[i] -= 1
            out.append(dec)
        out.append(base + [1])
    extra_base = bases[2]
    out.append([extra_base[0] + 2] + extra_base[1:])
    out.append([extra_base[0], extra_base[1] + 2] + extra_base[2:])
    out.append([extra_base[0] + 1, extra_base[1] + 1] + extra_base[2:])
    out.append(extra_base + [1, 1])
    out.append([e + 1 for e in extra_base])
    return out


def test_criterion_10_normalization_corpus(table_1e6):
    corpus = _perturbations()
    assert len(corpus) == 50
    for exps in corpus:
        c = CandidateFactorization.from_exponents(exps)
        res = normalize(c, table_1e6, step_limit=10000)
        assert res.status == "in_window", (exps, res.status)
        final = res.candidate
        p_r = table_1e6.nth_prime(final.r)
        for i in range(1, final.r + 1):
            a = final.a(i)
            assert a <= compute_u(final, i, table_1e6), (exps, i)
            assert a >= compute_l(p_r, table_1e6.nth_prime(i)), (exps, i)
        for step in res.trace:
            if step["ratio"] is not None:
                assert step["ratio_certainly_below_one"] is True, (
                    exps, step,
                )
