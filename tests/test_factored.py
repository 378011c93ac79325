"""Run-length candidates: round-trips, derived scalars, local G ratios."""

from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import n_over_phi_exact, rho_exact

from robinaudit.errors import (
    CandidateFormatError,
    DomainError,
    ResourceBudgetError,
    TableTooSmallError,
)
from robinaudit.factored import (
    _CHUNK,
    CandidateFactorization,
    _chunks,
    _Products,
    big_g,
    g_ratio_divide,
    g_ratio_swap,
    is_sum_of_two_squares,
    log_n,
    materialize,
    n_over_phi,
    rho,
)
from robinaudit.intervals import iv_compare, Comparison
from robinaudit.primes import PrimeTable

LN_5040 = Fraction(
    "8.52516136106541430016553103634712505075966773693689883032415")
G_5040 = Fraction(
    "1.79097336653488113336190135059109517409095390798757357791747")
G_55440 = Fraction(
    "1.75124651488749424693201490367395533798426915491096013675017")

C_5040 = CandidateFactorization.from_exponents([4, 2, 1, 1])
C_55440 = CandidateFactorization.from_exponents([4, 2, 1, 1, 1])


def test_runs_constructor_canonical():
    c = CandidateFactorization.from_runs([(4, 1), (2, 1), (1, 2)])
    assert c.canonical
    assert c.r == 4
    assert [c.a(i) for i in range(1, 6)] == [4, 2, 1, 1, 0]


def test_runs_constructor_rejects_non_decreasing():
    with pytest.raises(DomainError):
        CandidateFactorization.from_runs([(2, 1), (2, 1)])
    with pytest.raises(DomainError):
        CandidateFactorization.from_runs([(1, 1), (2, 1)])
    with pytest.raises(DomainError):
        CandidateFactorization.from_runs([(0, 1)])


def test_explicit_constructor_flags_shape():
    good = CandidateFactorization.from_exponents([4, 2, 1, 1])
    assert good.canonical
    bad = CandidateFactorization.from_exponents([1, 2])
    assert not bad.canonical
    assert bad.r == 2
    holes = CandidateFactorization.from_exponents([1, 0, 2])
    assert not holes.canonical
    assert holes.r == 3 and holes.omega == 2


def test_trailing_zeros_stripped():
    c = CandidateFactorization.from_exponents([2, 1, 0, 0])
    assert c.r == 2
    assert c.a(3) == 0


def test_negative_exponent_rejected():
    with pytest.raises(DomainError):
        CandidateFactorization.from_exponents([2, -1])


def test_s_index():
    assert C_5040.s_index() == 2  # a_2 = 2 is the last exponent >= 2
    squarefree = CandidateFactorization.from_runs([(1, 5)])
    assert squarefree.s_index() is None
    assert CandidateFactorization.from_exponents([3]).s_index() == 1


def test_json_round_trip():
    j = C_5040.to_json()
    assert j == {"runs": [
        {"exponent": 4, "count": 1},
        {"exponent": 2, "count": 1},
        {"exponent": 1, "count": 2},
    ]}
    back = CandidateFactorization.from_json(j)
    assert back == C_5040


def test_json_exponent_form():
    c = CandidateFactorization.from_json({"exponents": [4, 2, 1, 1]})
    assert c == C_5040


def test_json_errors_name_offending_field():
    with pytest.raises(CandidateFormatError) as e:
        CandidateFactorization.from_json({"runs": [{"exponent": 2, "count": 0}]})
    assert e.value.field == "runs[0].count"
    with pytest.raises(CandidateFormatError) as e:
        CandidateFactorization.from_json({"exponents": [2, -1]})
    assert e.value.field == "exponents[1]"
    with pytest.raises(CandidateFormatError) as e:
        CandidateFactorization.from_json({"exponents": [2, "x"]})
    assert e.value.field == "exponents[1]"
    with pytest.raises(CandidateFormatError):
        CandidateFactorization.from_json({"something": 1})
    with pytest.raises(CandidateFormatError):
        CandidateFactorization.from_json("not json at all {")
    # the candidate schema allows one form, no other top-level field and
    # no other field in a run item
    with pytest.raises(CandidateFormatError) as e:
        CandidateFactorization.from_json(
            {"runs": [{"exponent": 1, "count": 1}], "exponents": [4, 2, 1, 1]}
        )
    assert e.value.field == "<document>"
    with pytest.raises(CandidateFormatError) as e:
        CandidateFactorization.from_json({"exponents": [4, 2, 1, 1], "note": ""})
    assert e.value.field == "note"
    with pytest.raises(CandidateFormatError) as e:
        CandidateFactorization.from_json(
            {"runs": [{"exponent": 2, "count": 1}, {"exponent": 1, "count": 1, "p": 3}]}
        )
    assert e.value.field == "runs[1].p"


def test_json_non_canonical_runs_expand():
    c = CandidateFactorization.from_json(
        {"runs": [{"exponent": 1, "count": 1}, {"exponent": 2, "count": 1}]}
    )
    assert not c.canonical
    assert [c.a(1), c.a(2)] == [1, 2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40))
def test_rle_round_trip_hypothesis(exps):
    if not any(e > 0 for e in exps):
        exps = exps + [1]
    c = CandidateFactorization.from_exponents(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    assert c.exponents_list() == exps
    assert CandidateFactorization.from_json(c.to_json()).runs == c.runs


def test_materialize_small(table_1e6):
    assert materialize(C_5040, table_1e6) == 5040
    assert materialize(C_55440, table_1e6) == 55440
    assert materialize(CandidateFactorization.from_exponents([0, 2]), table_1e6) == 9


def test_materialize_budget(table_1e6):
    wide = CandidateFactorization.from_runs([(1, 70000)])
    with pytest.raises(ResourceBudgetError):
        materialize(wide, table_1e6, max_bits=1 << 10)


def test_table_too_small(table_1e5):
    wide = CandidateFactorization.from_runs([(1, len(table_1e5) + 5)])
    with pytest.raises(TableTooSmallError):
        log_n(wide, table_1e5)


def test_log_n_oracle(table_1e6):
    lg = log_n(C_5040, table_1e6)
    assert lg.contains(LN_5040)
    assert lg.width() < Fraction(1, 10**30)


def test_rho_matches_sympy(table_1e6):
    for c in (C_5040, C_55440,
              CandidateFactorization.from_exponents([6, 3, 2, 1, 1, 1]),
              CandidateFactorization.from_exponents([1, 0, 2])):
        n = materialize(c, table_1e6)
        exact = Fraction(int(sympy.divisor_sigma(n)), n)
        assert rho_exact(c, table_1e6) == exact
        assert rho(c, table_1e6).contains(exact)


def test_n_over_phi_matches_sympy(table_1e6):
    for c in (C_5040, C_55440):
        n = materialize(c, table_1e6)
        exact = Fraction(n, int(sympy.totient(n)))
        assert n_over_phi_exact(c, table_1e6) == exact
        assert n_over_phi(c, table_1e6).contains(exact)


# Runs that straddle the cell edges at positions 512, 1024, ...; the
# second candidate is non-canonical, with zero runs across an edge.
WIDE = CandidateFactorization.from_runs([(5, 3), (3, 600), (2, 700), (1, 1500)])
HOLEY = CandidateFactorization.from_exponents(
    [2] * 10 + [0] * 520 + [1] * 600 + [3] * 5 + [0] * 3 + [1] * 400)


def _mp_log_n(c, t):
    """sum a_i log p_i as an exact Fraction of a 512-bit mpmath sum."""
    with mpmath.mp.workprec(512):
        total = mpmath.mpf(0)
        for start, end, e in c.run_bounds():
            for p in t.slice(start, end).tolist():
                total += e * mpmath.log(p)
        man, exp = total.man_exp
    return Fraction(man) * Fraction(2) ** exp


def test_cells_sit_on_a_fixed_grid():
    assert _CHUNK == 512
    assert list(_chunks(4, 600)) == [(4, 512), (513, 600)]
    assert list(_chunks(601, 1300)) == [(601, 1024), (1025, 1300)]
    assert list(_chunks(1024, 1025)) == [(1024, 1024), (1025, 1025)]


@pytest.mark.parametrize("c", [WIDE, HOLEY], ids=["canonical", "holes"])
def test_aggregates_across_cell_edges(c, table_1e6):
    assert c.r > 2 * _CHUNK
    assert rho(c, table_1e6).contains(rho_exact(c, table_1e6))
    assert n_over_phi(c, table_1e6).contains(n_over_phi_exact(c, table_1e6))
    lg = log_n(c, table_1e6)
    assert lg.contains(_mp_log_n(c, table_1e6))
    assert lg.width() < Fraction(1, 10**30)


def test_shared_products_give_fresh_endpoints():
    # one object for both candidates, so later calls read cells that
    # earlier ones formed; a new table for every call, so no memoized
    # enclosure stands in for the products
    shared = _Products()

    def table():
        return PrimeTable.build(30000)  # p_2803 = 25423 for WIDE

    for c in (WIDE, HOLEY):
        for f in (log_n, rho, n_over_phi):
            fresh = f(c, table())
            again = f(c, table(), products=shared)
            assert (again.lo, again.hi) == (fresh.lo, fresh.hi), f.__name__


def test_big_g_oracles(table_1e6):
    assert big_g(C_5040, table_1e6).contains(G_5040)
    assert big_g(C_55440, table_1e6).contains(G_55440)


def test_rho_strictly_below_n_over_phi(table_1e6):
    # sigma(n)/n = prod (1 - p^-(a+1))/(1 - 1/p) < prod p/(p-1) = n/phi(n)
    for exps in ([4, 2, 1, 1], [1], [7, 1], [3, 3, 2, 1, 1, 1, 1]):
        c = CandidateFactorization.from_exponents(exps)
        assert rho_exact(c, table_1e6) < n_over_phi_exact(c, table_1e6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12))
def test_rho_below_n_over_phi_hypothesis(exps):
    t = _HYP_TABLE
    c = CandidateFactorization.from_exponents(exps)
    assert rho_exact(c, t) < n_over_phi_exact(c, t)


_HYP_TABLE = PrimeTable.build(200)


def test_loglog_domain(table_1e6):
    with pytest.raises(DomainError):
        big_g(CandidateFactorization.from_exponents([1]), table_1e6)  # log 2 < 1
    # G(4) = (7/4) / log log 4
    assert big_g(CandidateFactorization.from_exponents([2]), table_1e6).contains(
        Fraction(7, 4) / Fraction("0.326634259978280982404792963225507098621236686"))


def test_huge_exponent_paths(table_1e6):
    c = CandidateFactorization.from_runs([(150_000_000_000_000, 1)])
    lg = log_n(c, table_1e6)
    # 1.5e14 * ln 2 with enough oracle digits that the product error stays
    # far below the enclosure width at this magnitude
    ln2 = Fraction(
        "0.69314718055994530941723212145817656807550013436025525412068")
    approx = Fraction(150_000_000_000_000) * ln2
    assert lg.lo <= approx <= lg.hi
    rh = rho(c, table_1e6)
    # true rho = 2 - 2^-(1.5e14): indistinguishable from 2 at this precision
    # but the enclosure must still admit values below 2 and have real width
    assert rh.lo < 2 <= rh.hi + Fraction(1, 10**30)
    assert rh.width() > 0
    g = big_g(c, table_1e6)
    assert 0 < g.lo < g.hi < 1


def test_derived_scalars_bundle(table_1e6):
    nphi = n_over_phi(C_5040, table_1e6)
    assert log_n(C_5040, table_1e6).contains(LN_5040)
    assert big_g(C_5040, table_1e6).contains(G_5040)
    assert nphi.contains(Fraction(35, 8))
    assert iv_compare(rho(C_5040, table_1e6), nphi) is Comparison.CERTAINLY_LESS


def _independent_ratio_divide(c, s, t, prec=512):
    """G(c)/G(c / p_s) via two full evaluations at high precision."""
    exps = c.exponents_list()
    exps[s - 1] -= 1
    c1 = CandidateFactorization.from_exponents(exps)
    from robinaudit.intervals import iv_div

    return iv_div(big_g(c, t, prec), big_g(c1, t, prec), prec)


def test_g_ratio_divide_consistent(table_1e6):
    for c, s in ((C_5040, 1), (C_5040, 2), (C_5040, 4),
                 (C_55440, 5), (C_55440, 1)):
        local = g_ratio_divide(c, s, table_1e6)
        indep = _independent_ratio_divide(c, s, table_1e6)
        # both enclose the true ratio; the high-precision midpoint of the
        # independent route must land inside the local enclosure
        assert local.contains(indep.midpoint())


def test_g_ratio_divide_rejects_absent_prime(table_1e6):
    with pytest.raises(DomainError):
        g_ratio_divide(C_5040, 5, table_1e6)  # p_5 = 11 does not divide 5040


def test_g_ratio_swap_consistent(table_1e6):
    c = C_55440  # a_r = 1 at p_5 = 11
    for s in (1, 2, 3):
        local = g_ratio_swap(c, s, table_1e6)
        exps = c.exponents_list()
        exps[s - 1] += 1
        exps.pop()
        c1 = CandidateFactorization.from_exponents(exps)
        from robinaudit.intervals import iv_div

        indep = iv_div(big_g(c, table_1e6, 512), big_g(c1, table_1e6, 512), 512)
        assert local.contains(indep.midpoint())


def test_g_ratio_swap_preconditions(table_1e6):
    with pytest.raises(DomainError):
        g_ratio_swap(CandidateFactorization.from_exponents([2, 2]), 1, table_1e6)
    with pytest.raises(DomainError):
        g_ratio_swap(C_55440, 5, table_1e6)  # s must be < r
    with pytest.raises(DomainError):
        g_ratio_swap(CandidateFactorization.from_exponents([3]), 1, table_1e6)


def test_two_squares_rules(table_1e6):
    # 5040 has 7^1 -> no; 9 = 3^2 -> yes; 50 = 2 * 5^2 -> yes; 490 = 2*5*7^2 -> yes
    assert not is_sum_of_two_squares(C_5040, table_1e6)
    assert is_sum_of_two_squares(
        CandidateFactorization.from_exponents([0, 2]), table_1e6)
    assert is_sum_of_two_squares(
        CandidateFactorization.from_exponents([1, 0, 2]), table_1e6)
    assert is_sum_of_two_squares(
        CandidateFactorization.from_exponents([1, 0, 1, 2]), table_1e6)
    assert not is_sum_of_two_squares(
        CandidateFactorization.from_exponents([1, 1]), table_1e6)  # 6 = 2*3


def test_two_squares_brute_force_small(table_1e6):
    import math

    def brute(n):
        return any(
            math.isqrt(n - a * a) ** 2 == n - a * a
            for a in range(math.isqrt(n) + 1)
        )

    cases = {
        2: [1], 4: [2], 5: [0, 0, 1], 9: [0, 2], 18: [1, 2], 21: [0, 1, 0, 1],
        45: [0, 2, 1], 50: [1, 0, 2], 98: [1, 0, 0, 2], 490: [1, 0, 1, 2],
    }
    for n, exps in cases.items():
        c = CandidateFactorization.from_exponents(exps)
        assert materialize(c, table_1e6) == n
        assert is_sum_of_two_squares(c, table_1e6) == brute(n), n
