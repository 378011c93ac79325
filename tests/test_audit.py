"""Audit checks, window bounds, and normalization.

Window-bound oracles were computed independently (mpmath at 60 digits,
exact integer power brackets) and frozen below before the implementation
existed.
"""

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp
from oracles import (
    b2_violations,
    density_product_exact,
    u_oracle,
    upper_bound_rounded,
)

from robinaudit.audit import (
    _edited,
    CHECK_IDS,
    FAIL,
    IN_WINDOW,
    NOT_APPLICABLE,
    PASS,
    STEP_LIMIT,
    UNKNOWN,
    BLOCKED_EXPONENT,
    BLOCKED_LOG_WINDOW,
    compute_l,
    compute_m,
    compute_u,
    full_audit,
    normalize,
    report_to_json_str,
    run_check,
)
from robinaudit.errors import (
    DomainError,
    InvariantError,
    TableTooSmallError,
)
from robinaudit import audit, factored, intervals
from robinaudit.factored import (
    CandidateFactorization,
    Run,
    g_ratio_divide,
    g_ratio_swap,
    log_n,
    n_over_phi,
    rho,
)
from robinaudit.intervals import (
    Comparison,
    IntervalScalar,
    interval_to_json,
    iv_compare,
    iv_from_int,
    iv_make,
    iv_mul,
    iv_round,
    iv_sub,
)
from robinaudit.primes import PrimeTable

# exp(exp(-gamma) * f(N_k)) - log N_k, 45 digits, independent computation
M_1 = Fraction("2.38066630098027761266713630262540953976402183")
M_2 = Fraction("3.59734083042227350476142367691549699803909241")
M_6 = Fraction("8.36517260155339715647975395377515377273955619")


def cand(*exps):
    return CandidateFactorization.from_exponents(list(exps))


class TestWindowBounds:
    def test_upper_bound_synthetic_log(self):
        # log n pinned to exactly 100
        lg = iv_from_int(100)
        assert audit._upper_bound(lg, 2, 128) == 9    # 2^9 = 512 <= 900 < 1024
        assert audit._upper_bound(lg, 3, 128) == 5    # 3^5 = 243 <= 500 < 729
        assert audit._upper_bound(lg, 7, 128) == 2    # 7^2 = 49 <= 200 < 343

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 10**12).flatmap(
        lambda x: st.tuples(st.just(x), st.one_of(st.integers(3, min(x, 60)),
                                                  st.integers(3, x)))))
    @example((4, 3))        # 2^4 = 4 * 4: only _Indeterminate is allowed
    @example((10**12, 3))
    def test_upper_bound_matches_oracle(self, pair):
        x, below = pair
        p = sympy.prevprime(below)  # a prime p < x
        try:
            got = audit._upper_bound(iv_from_int(x), p, 128)
        except audit._Indeterminate:
            assert any(p**j == j * x for j in range(1, 100)), (x, p)
            return
        assert got == u_oracle(x, p), (x, p)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(3, 10**12).flatmap(lambda x: st.tuples(
            st.just(x), st.one_of(st.integers(3, min(x, 60)),
                                  st.integers(3, x)))),
        st.integers(0, 2**64 - 1),
        st.one_of(st.none(), st.integers(0, 200)),
        st.sampled_from([64, 96, 128, 256]),
    )
    def test_exact_walk_keeps_every_rounded_decision(self, pair, offset,
                                                     width_bits, prec):
        x, below = pair
        p = sympy.prevprime(below)
        if width_bits is None:  # log n = x exactly
            lg = iv_from_int(x)
        else:
            lo = x + Fraction(offset, 2**64)
            lg = iv_make(lo, lo + Fraction(1, 2**width_bits), prec)
        try:
            rounded = upper_bound_rounded(lg, p, prec)
        except audit._Indeterminate:
            rounded = None
        try:
            exact = audit._upper_bound(lg, p, prec)
        except audit._Indeterminate:
            exact = None
        if rounded is not None:
            assert exact == rounded, (x, p, prec)
        if width_bits is None:
            tie = any(p**j == j * x for j in range(1, 100))
            assert exact == (None if tie else u_oracle(x, p)), (x, p)
            assert rounded in (None, exact)
        elif exact is not None:
            # a certified bracket for every value of the enclosure
            assert p**exact < exact * lg.lo
            assert (exact + 1) * lg.hi < p ** (exact + 1)

    def test_exact_walk_decides_where_rounding_overlaps(self):
        # log n a hair below 1024/10: 10 log n < 2^10 exactly, but at 64
        # bits the product 10 log n rounds up to 2^10 itself
        m = (1024 << 110) // 10
        t = from_man_exp(m, -110)
        lg = IntervalScalar(t, t)
        with pytest.raises(audit._Indeterminate):
            upper_bound_rounded(lg, 2, 64)
        assert audit._upper_bound(lg, 2, 64) == 9
        assert 2**9 < 9 * lg.lo and 10 * lg.hi < 2**10

    @pytest.mark.parametrize("p", [2, 3])
    def test_upper_bound_far_past_two_hundred_brackets(self, p):
        x = 2**300 + 12345
        want = max(k for k in range(1, 400) if p**k <= k * x)
        assert want > 150  # the walk used to stop at 199 brackets
        assert audit._upper_bound(iv_from_int(x), p, 128) == want

    def test_upper_bound_candidate(self, table_1e6):
        c = CandidateFactorization.from_runs([(1, 1000)])
        u1 = compute_u(c, 1, table_1e6)
        lg = log_n(c, table_1e6, 192)
        # independent floor certification: 2^u <= k log n < 2^(u+1) at k = u
        k = u1
        assert Fraction(2) ** k <= k * lg.lo
        assert (k * lg.hi) < Fraction(2) ** (k + 1)

    def test_upper_bound_monotone_in_prime(self, table_1e6):
        lg = iv_from_int(100)
        us = [audit._upper_bound(lg, p, 128) for p in (2, 3, 5, 7, 11, 13)]
        assert us == sorted(us, reverse=True)
        assert all(u >= 1 for u in us)

    def test_upper_bound_needs_log_above_prime(self, table_1e6):
        c = cand(4, 2, 1, 1)  # log 5040 = 8.52...
        assert compute_u(c, 4, table_1e6) == 1
        with pytest.raises(DomainError):
            compute_u(c, 5, table_1e6)  # p_5 = 11 > log n

    def test_upper_bound_refuses_a_log_too_small(self):
        with pytest.raises(DomainError, match="log n certainly > 2"):
            audit._upper_bound(iv_from_int(2), 2, 128)
        with pytest.raises(DomainError, match="101 not certainly below log n"):
            audit._upper_bound(iv_from_int(100), 101, 128)

    def test_compute_l_refuses_x_or_p_below_two(self):
        for x, p in ((0, 2), (1, 2), (97, 1)):
            with pytest.raises(DomainError,
                               match=f"x >= 2 and p >= 2, got x={x}, p={p}$"):
                compute_l(x, p)

    def test_lower_bound_exact(self):
        assert compute_l(97, 2) == 6    # 64 <= 97 < 128
        assert compute_l(97, 3) == 4    # 81 <= 97 < 243
        assert compute_l(97, 97) == 1
        assert compute_l(7, 2) == 2
        with pytest.raises(DomainError):
            compute_l(97, 1)

    @given(st.sampled_from([2, 3, 5, 7, 11, 13, 97]), st.integers(2, 10**6))
    def test_lower_bound_is_a_floor(self, p, x):
        m = compute_l(x, p)
        assert p**m <= x < p ** (m + 1)

    def test_m_values(self, table_1e6):
        for k, oracle in ((1, M_1), (2, M_2), (6, M_6)):
            got = compute_m(k, table_1e6)
            assert got.lo <= oracle <= got.hi
            assert got.width() < Fraction(1, 10**30)

    def test_m_rejects_nonpositive(self, table_1e6):
        with pytest.raises(DomainError):
            compute_m(0, table_1e6)


_HUGE = 10**5000  # CPython formats no int of more than 4300 digits


@pytest.mark.parametrize("call", [
    lambda t: CandidateFactorization.from_runs([(_HUGE, 1), (_HUGE, 1)]),
    lambda t: CandidateFactorization.from_runs([(1, -_HUGE)]),
    lambda t: cand(2, 1).a(-_HUGE),
    lambda t: t.nth_prime(-_HUGE),
    lambda t: compute_m(-_HUGE, t),
    lambda t: compute_l(-_HUGE, 3),
    lambda t: normalize(cand(2, 1), t, step_limit=-_HUGE),
], ids=["from_runs_order", "from_runs_count", "a", "nth_prime", "compute_m",
        "compute_l", "normalize"])
def test_huge_argument_is_domain_error(call):
    # the message gives the size of a huge int, not a ValueError
    with pytest.raises(DomainError, match="bit integer"):
        call(_SCAN_TABLE)


class TestIndividualChecks:
    def test_log_windows_on_primorial(self, table_1e6):
        c = cand(1, 1, 1, 1, 1, 1)  # 30030, log n = 10.31 < p_r = 13
        assert run_check("log_window_1", c, table_1e6).status == FAIL
        assert run_check("log_window_2", c, table_1e6).status == PASS
        assert run_check("upper_window_3", c, table_1e6).status == NOT_APPLICABLE

    def test_log_windows_on_5040(self, table_1e6):
        c = cand(4, 2, 1, 1)  # log n = 8.52 > p_r = 7, but above the band
        assert run_check("log_window_1", c, table_1e6).status == PASS
        v = run_check("log_window_2", c, table_1e6)
        assert v.status == FAIL
        assert v.witness["p_r"] == 7

    def test_upper_window_violation_inside_first_run(self, table_1e6):
        # log n = 1004.82 > p_r = 997, yet U(2) = 13 < 30
        exps = [30, 13, 5, 3, 2, 2] + [1] * 162
        c = CandidateFactorization.from_exponents(exps)
        assert c.r == 168
        v = run_check("upper_window_3", c, table_1e6)
        assert v.status == FAIL
        assert v.witness["index"] == 1
        assert v.witness["upper_bound"] == 13
        assert v.witness["exponent"] == 30

    def test_upper_window_pass(self, table_1e6):
        v = run_check("upper_window_3", cand(4, 2, 1, 1), table_1e6)
        assert v.status == PASS

    def test_lower_window_on_primorial(self, table_1e6):
        v = run_check("lower_window_4", cand(1, 1, 1, 1, 1, 1), table_1e6)
        assert v.status == FAIL
        assert v.witness == {
            "index": 1, "prime": 2, "exponent": 1, "lower_bound": 3,
        }

    def test_lower_window_pass(self, table_1e6):
        assert run_check("lower_window_4", cand(4, 2, 1, 1), table_1e6).status == PASS

    def test_lower_window_single_prime(self, table_1e6):
        assert run_check("lower_window_4", cand(3), table_1e6).status == NOT_APPLICABLE

    def test_shape_b5_skips_first_index(self, table_1e6):
        # 2 * 3 * 5 * ... with a deliberately tiny first exponent: B5 must
        # not blame index 1, lower_window_4 must
        c = cand(1, 2, 1)
        v4 = run_check("lower_window_4", c, table_1e6)
        v5 = run_check("shape_B5", c, table_1e6)
        assert v4.status == FAIL and v4.witness["index"] == 1
        assert v5.status == PASS

    def test_shape_b1(self, table_1e6):
        v = run_check("shape_B1", cand(4, 2, 1, 1), table_1e6)
        assert v.status == PASS and v.witness == {"canonical": True}
        v = run_check("shape_B1", cand(1, 2), table_1e6)
        assert v.status == FAIL
        assert run_check("shape_B1", cand(2, 0, 1), table_1e6).status == FAIL

    def test_shape_checks_read_the_one_run_list(self, table_1e6):
        # 18 = 2 * 3^2 built directly: B1 scans its runs for the rise
        rising = CandidateFactorization(runs=(Run(1, 1), Run(2, 1)))
        v = run_check("shape_B1", rising, table_1e6)
        assert v.status == FAIL
        assert v.witness == {"index_i": 1, "index_j": 2,
                             "exponent_i": 1, "exponent_j": 2}
        # 36 = 2^2 3^2 cannot be split into two runs, so it is always B3's
        # listed exception
        with pytest.raises(DomainError, match="share exponent 2"):
            CandidateFactorization(runs=(Run(2, 1), Run(2, 1)))
        merged = CandidateFactorization(runs=(Run(2, 2),))
        assert run_check("shape_B3", merged, table_1e6).status == PASS
        assert run_check("shape_B1", merged, table_1e6).status == PASS

    def test_shape_b2_boundary(self, table_1e6):
        # floor(20 log 2 / log 3) = 12: allowed against 13, not against 14
        assert run_check("shape_B2", cand(20, 13), table_1e6).status == PASS
        v = run_check("shape_B2", cand(20, 14), table_1e6)
        assert v.status == FAIL
        assert v.witness["predicted"] == 12

    def test_shape_b2_within_run(self, table_1e6):
        # e = 2 over [2..7]: floor(2 log 2 / log 7) = 0 < 1 = e - 1
        v = run_check("shape_B2", cand(2, 2, 2, 2), table_1e6)
        assert v.status == FAIL
        assert v.witness["index_i"] == 1

    @pytest.mark.parametrize("exps, status", [
        ([1] * 300 + [0] + [1] * 300, PASS),
        ([9, 0] + [1] * 600, FAIL),  # floor(9 log 2 / log 5) = 3 at (1, 3)
    ])
    def test_shape_b2_wide_non_canonical(self, exps, status, table_1e6):
        # a hole makes these non-canonical; the corner scan decides them
        # at any width
        c = cand(*exps)
        assert not c.canonical and c.r > 600
        assert run_check("shape_B2", c, table_1e6).status == status

    def test_shape_b3_exceptions(self, table_1e6):
        assert run_check("shape_B3", cand(2), table_1e6).status == PASS      # 4
        assert run_check("shape_B3", cand(2, 2), table_1e6).status == PASS   # 36
        assert run_check("shape_B3", cand(3), table_1e6).status == FAIL      # 8
        assert run_check("shape_B3", cand(3, 2), table_1e6).status == FAIL
        assert run_check("shape_B3", cand(4, 2, 1, 1), table_1e6).status == PASS

    def test_shape_b4(self, table_1e6):
        # a_1 = 1 allows p_i^(a_i) up to 2^3 = 8 only
        v = run_check("shape_B4", cand(1, 1, 1, 1, 1, 1), table_1e6)
        assert v.status == FAIL
        assert v.witness["index"] == 5 and v.witness["prime"] == 11
        assert run_check("shape_B4", cand(4, 2, 1, 1), table_1e6).status == PASS

    def test_shape_b4_reads_no_index_below_2(self, table_1e6):
        # p_1^(a_1) < 2^(a_1 + 2) always holds, yet at a_1 = 2^2100 no
        # precision of the ladder decides it; B4 starts at index 2
        a_1 = 2**2100
        v = run_check("shape_B4", CandidateFactorization.from_runs([(a_1, 1), (1, 5)]),
                      table_1e6)
        assert (v.status, v.witness) == (PASS, {"bound_exponent": a_1 + 2})

    def test_density_b6(self, table_1e6):
        v = run_check("density_B6", cand(4, 2, 1, 1), table_1e6)
        assert v.status == PASS
        assert set(v.witness) == {"product", "bound", "epsilon_p_r",
                                  "pieces_read", "tail_from_prime"}

    @pytest.mark.parametrize("runs, status, read, q", [
        # 31/32 times the tail floor 1/2 is above 1 - eps(7) < 0.1
        ([(4, 1), (2, 1), (1, 2)], PASS, 1, 3),
        # the piece 1 - 2^-(1.5e14 + 1), enclosed per prime
        ([(150_000_000_000_000, 1), (2, 1), (1, 3)], PASS, 1, 3),
        # 28 primes of exponent 1 already fall below 1 - eps(p_30)
        ([(1, 28), (2, 1), (1, 1)], FAIL, 1, 109),
        # neither test decides before the last piece
        ([(2, 1), (1, 29)], FAIL, 2, None),
        ([(3, 1), (1, 29)], PASS, 2, None),
        ([(1, 6)], PASS, 1, None),
        # a squarefree shape fails on its first cell; p_513 = 3673
        ([(1, 50_000)], FAIL, 1, 3673),
    ])
    def test_density_b6_stops_at_the_first_certified_piece(
            self, table_1e6, runs, status, read, q):
        c = CandidateFactorization._from_pieces(runs)
        v = run_check("density_B6", c, table_1e6)
        assert v.status == status
        w = v.witness
        assert (w["pieces_read"], w["tail_from_prime"]) == (read, q)
        if q is None:
            assert w["product"].contains(
                density_product_exact(c, table_1e6))

    def test_vojak_d1_exact_count(self, table_1e6):
        v = run_check("vojak_D1", cand(4, 2, 1, 1), table_1e6)
        assert v.status == FAIL and v.witness["floor"] == 969672728
        wide = CandidateFactorization.from_runs([(1, 969672729)])
        assert run_check("vojak_D1", wide, table_1e6).status == PASS
        narrow = CandidateFactorization.from_runs([(1, 969672728)])
        assert run_check("vojak_D1", narrow, table_1e6).status == FAIL

    def test_vojak_d2_counts_non_unit_exponents(self, table_1e6):
        # 55440 = 2^4 3^2 5 7 11: two indices with a != 1 versus r/14
        v = run_check("vojak_D2", cand(4, 2, 1, 1, 1), table_1e6)
        assert v.status == FAIL
        assert v.witness == {"count_exponent_not_one": 2, "r": 5}
        wide = CandidateFactorization.from_runs([(2, 1), (1, 28)])
        assert run_check("vojak_D2", wide, table_1e6).status == PASS

    def test_vojak_d3(self, table_1e6):
        assert run_check("vojak_D3", cand(4, 2, 1, 1), table_1e6).status == PASS
        assert run_check("vojak_D3", cand(1, 1, 1, 1, 1, 1), table_1e6).status == FAIL

    def test_vojak_d4(self, table_1e6):
        assert run_check("vojak_D4", cand(4, 2, 1, 1), table_1e6).status == PASS
        v = run_check("vojak_D4", cand(1, 1, 1, 1, 1, 1), table_1e6)
        assert v.status == FAIL
        assert v.witness["index"] == 6 and v.witness["prime"] == 13
        assert v.witness["below_power_bound"] is False

    def test_exponent_floors_are_strict(self, table_1e6):
        assert run_check("exponents_E", cand(20, 13, 8, 7, 6), table_1e6).status == PASS
        v = run_check("exponents_E", cand(19, 13, 8, 7, 6), table_1e6)
        assert v.status == FAIL and v.witness["index"] == 1
        v = run_check("exponents_E", cand(20, 13, 8, 7, 5), table_1e6)
        assert v.status == FAIL and v.witness["index"] == 5

    def test_two_squares_excludes_representable(self, table_1e6):
        # 5 = 1 + 4 and 98 = 49 + 49 are sums of two squares
        assert run_check("two_squares_F", cand(0, 0, 1), table_1e6).status == FAIL
        assert run_check("two_squares_F", cand(1, 0, 0, 2), table_1e6).status == FAIL
        assert run_check("two_squares_F", cand(4, 2, 1, 1), table_1e6).status == PASS

    def test_s_window(self, table_1e6):
        v = run_check("s_window_56", cand(4, 2, 1, 1), table_1e6)
        assert v.status == PASS
        assert v.witness["s"] == 2 and v.witness["p_s"] == 3
        # squarefree: no s at all
        v = run_check("s_window_56", cand(1, 1, 1), table_1e6)
        assert v.status == NOT_APPLICABLE
        # s = r: the window statement needs s < r
        v = run_check("s_window_56", cand(2, 2), table_1e6)
        assert v.status == NOT_APPLICABLE
        # 2^4 3^2 far top prime: p_s = 3 drops below the lower edge
        far = CandidateFactorization.from_runs([(4, 1), (2, 1), (1, 23)])
        v = run_check("s_window_56", far, table_1e6)
        assert v.status == FAIL

    def test_alt_log_window_is_informational(self, table_1e6):
        def alt(c):
            rep = full_audit(c, table_1e6, include_alt_log_window=True)
            [(cid, v)] = rep.extra_checks
            assert cid == "log_window_alt"
            return v

        assert alt(cand(4, 2, 1, 1)).status == FAIL  # p_r = 7 sits below 8.503
        assert alt(cand(1, 1, 1, 1, 1, 1)).status == PASS  # 13 above 10.26

    def test_unknown_check_id_rejected(self, table_1e6):
        with pytest.raises(DomainError):
            run_check("nonsense", cand(1), table_1e6)


class TestFullAudit:
    def test_5040_exclusions(self, table_1e6):
        rep = full_audit(cand(4, 2, 1, 1), table_1e6)
        assert rep.result == "excluded"
        assert set(rep.excluded_by) >= {
            "size_floor_C", "log_window_2", "vojak_D1", "exponents_E",
        }
        assert rep.unknown_checks == []

    def test_primorial_exclusions(self, table_1e6):
        rep = full_audit(cand(1, 1, 1, 1, 1, 1), table_1e6)
        assert "lower_window_4" in rep.excluded_by
        assert "log_window_1" in rep.excluded_by

    def test_check_order_and_coverage(self, table_1e6):
        rep = full_audit(cand(4, 2, 1, 1), table_1e6)
        assert [cid for cid, _ in rep.checks] == list(CHECK_IDS)
        assert len(CHECK_IDS) == 18

    def test_schema_lists_the_ledger_in_order(self):
        text = (resources.files("robinaudit")
                .joinpath("schemas/audit_report.schema.json").read_text())
        ids = json.loads(text)["properties"]["checks"]["items"]["properties"]["id"]
        assert ids["enum"] == list(CHECK_IDS)

    def test_verdict_for_reads_only_the_ledger(self, table_1e6):
        rep = full_audit(cand(4, 2, 1, 1), table_1e6,
                         include_alt_log_window=True)
        assert rep.verdict_for("shape_B1").status == PASS
        with pytest.raises(KeyError):
            rep.verdict_for("log_window_alt")  # an extra check

    def test_excluded_by_follows_check_order(self, table_1e6):
        rep = full_audit(cand(4, 2, 1, 1), table_1e6)
        order = {cid: i for i, cid in enumerate(CHECK_IDS)}
        ranks = [order[cid] for cid in rep.excluded_by]
        assert ranks == sorted(ranks)

    def test_small_table_leaves_unknowns(self):
        tiny = PrimeTable.build(10)  # 2 3 5 7
        c = CandidateFactorization.from_runs(
            [(20, 1), (13, 1), (8, 1), (7, 1), (6, 1), (1, 10**9)]
        )
        rep = full_audit(c, tiny)
        assert rep.result == "inconclusive"
        assert rep.excluded_by == []
        assert "size_floor_C" in rep.unknown_checks
        assert rep.verdict_for("vojak_D1").status == PASS
        assert rep.verdict_for("exponents_E").status == PASS
        needed = rep.verdict_for("size_floor_C").witness["needed_index"]
        assert needed == c.r

    def test_huge_exponent_candidate(self, table_1e6):
        c = CandidateFactorization.from_runs(
            [(150_000_000_000_000, 1), (2, 1), (1, 3)]
        )
        rep = full_audit(c, table_1e6)
        assert rep.verdict_for("size_floor_C").status == PASS
        assert rep.result == "excluded"

    def test_context_computes_shared_values_once(self, table_1e6,
                                                 monkeypatch):
        logs, decimals = [], []
        real_log, real_decimal = intervals.iv_log, intervals.iv_from_decimal

        def counting_log(a, prec=128):
            logs.append(a if isinstance(a, IntervalScalar) else iv_from_int(a))
            return real_log(a, prec)

        def counting_decimal(text, prec=128):
            decimals.append(text)
            return real_decimal(text, prec)

        for mod in (audit, factored, intervals):
            monkeypatch.setattr(mod, "iv_log", counting_log)
        monkeypatch.setattr(intervals, "iv_from_decimal", counting_decimal)

        def logs_of(x):
            return sum(a.lo == a.hi == x for a in logs)

        # p_r = 7: one log, shared by the top-prime bounds (log window 2,
        # B6, D3) and D4 at the end of the last run; none on a second audit
        c = cand(4, 2, 1, 1)
        intervals.constants.cache_clear()
        intervals.iv_log_rational.cache_clear()
        audit._top_prime_bounds.cache_clear()
        first = full_audit(c, table_1e6, include_alt_log_window=True)
        assert first.verdict_for("vojak_D4").status == PASS
        assert logs_of(7) == 1
        assert logs_of(10) == 1 and decimals  # the constants, formed once
        logs.clear()
        decimals.clear()
        again = full_audit(c, table_1e6, include_alt_log_window=True)
        assert report_to_json_str(again) == report_to_json_str(first)
        assert logs_of(7) == 0
        assert logs_of(10) == 0 and decimals == []

    def test_witnesses_formatted_only_when_serialized(self, table_1e6,
                                                     monkeypatch):
        calls = []
        real = intervals._mpf_to_decimal_str

        def counting(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(intervals, "_mpf_to_decimal_str", counting)
        golden = (Path(__file__).resolve().parent / "golden"
                  / "audit_criterion_9.txt").read_text(encoding="utf-8")
        compared = 0
        # 5040 and the primorial 30030 are the criterion 9 fixtures; n = 2
        # takes the n <= 10 branch of C and leaves log log n undefined
        for c in (cand(4, 2, 1, 1), cand(1, 1, 1, 1, 1, 1), cand(1)):
            for prec in (128, 256):
                rep = full_audit(c, table_1e6, prec,
                                 include_alt_log_window=True)
                assert calls == [], (c, prec)
                assert isinstance(rep.verdict_for("log_window_1")
                                  .witness["log_n"], IntervalScalar)
                rep.extra_checks = []  # the fixtures hold the ledger only
                text = report_to_json_str(rep)
                assert calls
                calls.clear()
                header = f"### {c} audit {prec}\n"
                if header in golden:
                    recorded = golden.split(header, 1)[1]
                    recorded = recorded.split("\n### ", 1)[0].rstrip("\n")
                    assert text == recorded, (c, prec)
                    compared += 1
        assert compared == 4

    def test_report_json_deterministic(self, table_1e6):
        a = report_to_json_str(full_audit(cand(4, 2, 1, 1), table_1e6))
        b = report_to_json_str(full_audit(cand(4, 2, 1, 1), table_1e6))
        assert a == b
        assert '"summary"' in a

    def test_alt_window_kept_out_of_summary(self, table_1e6):
        rep = full_audit(cand(4, 2, 1, 1), table_1e6,
                         include_alt_log_window=True)
        assert [cid for cid, _ in rep.checks] == list(CHECK_IDS)
        assert rep.extra_checks[0][0] == "log_window_alt"
        assert "log_window_alt" not in rep.excluded_by
        payload = report_to_json_str(rep)
        assert '"extra_checks"' in payload

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(
            lambda e: any(x > 0 for x in e)
        )
    )
    def test_no_verdict_flip_under_double_precision(self, exps):
        c = CandidateFactorization.from_exponents(exps)
        lo = full_audit(c, _HYP_TABLE, 128)
        hi = full_audit(c, _HYP_TABLE, 256)
        for (cid, v_lo), (_, v_hi) in zip(lo.checks, hi.checks):
            if v_lo.status in (PASS, FAIL):
                assert v_hi.status == v_lo.status, cid


_HYP_TABLE = PrimeTable.build(100)


def _unknown(reason, prec=128, **witness):
    return {"status": UNKNOWN, "witness": {"reason": reason, **witness},
            "precision_used": prec}


# M(4) at 128 bits, rounded outward, as D4 reports it
_M_4_JSON = {
    "lo": "6.315470310101542113285278193406834511803545239391213867369242460959"
          "8127122233303062416587270178069957182742655277252197265625",
    "hi": "6.315470310101542113285278193406834512438312188835249121672360191059"
          "82537824540970689858598863253291710861958563327789306640625",
}


class TestUnknownWitnesses:
    """The Unknown verdicts that no golden file holds, each forced by
    making one comparison indeterminate."""

    @pytest.mark.parametrize("prec", [128, 256])
    def test_upper_window_bracket(self, table_1e6, monkeypatch, prec):
        # log n in [340, 342]: 2^12 = 4096 lies between 12 * 340 and 12 * 342
        monkeypatch.setattr(audit, "log_n",
                            lambda *args, **kwargs: iv_make(340, 342, prec))
        v = run_check("upper_window_3", cand(4, 2, 1, 1), table_1e6, prec)
        assert v.to_json() == _unknown("2^12 vs 12 log n indeterminate", prec,
                                       suggested_precision_bits=2 * prec)

    def test_overlapping_comparison(self, table_1e6, monkeypatch):
        # log n in [6, 8] against p_r = 7: neither side is certain
        lg = iv_make(6, 8)
        monkeypatch.setattr(audit, "log_n", lambda *args, **kwargs: lg)
        v = run_check("log_window_1", cand(4, 2, 1, 1), table_1e6)
        assert (v.status, v.witness) == (UNKNOWN, {"log_n": lg, "p_r": 7})

    def test_shape_b2_floor(self, table_1e6, monkeypatch):
        monkeypatch.setattr(audit, "escalate", lambda *args: None)
        c = CandidateFactorization.from_runs(
            [(150_000_000_000_000, 1), (2, 1), (1, 3)])
        assert run_check("shape_B2", c, table_1e6).to_json() == _unknown(
            "floor(a_1 log p_1 / log p_2) straddles an integer")

    def test_power_comparisons_of_b4_and_d4(self, table_1e6, monkeypatch):
        monkeypatch.setattr(audit, "power_below", lambda *args: None)
        c = cand(4, 2, 1, 1)
        reason = "3^2 vs 2^6 indeterminate"
        assert run_check("shape_B4", c, table_1e6).to_json() == _unknown(reason)
        assert run_check("vojak_D4", c, table_1e6).to_json() == _unknown(
            reason, m_r=_M_4_JSON)

    def test_uncovered_candidate(self, table_1e5):
        # only the five checks that read no primes decide
        c = CandidateFactorization.from_runs([(1, 10**6 + 1)])
        rep = full_audit(c, table_1e5, include_alt_log_window=True)
        decided = {"shape_B1": PASS, "shape_B3": PASS, "vojak_D1": FAIL,
                   "vojak_D2": PASS, "exponents_E": FAIL}
        uncovered = _unknown("prime table does not cover the candidate",
                             needed_index=10**6 + 1, table_primes=9592)
        for cid, v in rep.checks + rep.extra_checks:
            if cid in decided:
                assert v.status == decided[cid], cid
            else:
                assert v.to_json() == uncovered, cid
        assert len(rep.unknown_checks) == 13


class TestNormalize:
    def test_divide_steps_until_in_window(self, table_1e6):
        res = normalize(cand(7, 2, 1, 1), table_1e6)
        assert res.status == IN_WINDOW
        assert res.candidate.exponents_list() == [5, 2, 1, 1]
        assert [s["action"] for s in res.trace] == ["divide", "divide"]
        assert all(s["ratio_certainly_below_one"] for s in res.trace)

    def test_swap_steps_on_primorial(self, table_1e6):
        res = normalize(cand(1, 1, 1, 1, 1, 1), table_1e6)
        assert res.status == IN_WINDOW
        assert res.candidate.exponents_list() == [2, 2, 1, 1]
        assert [s["action"] for s in res.trace] == ["swap", "swap"]
        assert [s["index"] for s in res.trace] == [2, 1]
        assert [s["removed_prime"] for s in res.trace] == [13, 11]

    def test_divide_scans_from_largest_index(self, table_1e6):
        # both 2 and 3 overshoot: the step at 3 must come first
        res = normalize(cand(7, 6, 1, 1), table_1e6)
        assert res.status == IN_WINDOW
        first = res.trace[0]
        assert first["action"] == "divide" and first["index"] == 2

    def test_already_in_window(self, table_1e6):
        res = normalize(cand(5, 2, 1, 1), table_1e6)
        assert res.status == IN_WINDOW and res.steps == 0

    def test_step_limit(self, table_1e6):
        res = normalize(cand(1, 1, 1, 1, 1, 1), table_1e6, step_limit=1)
        assert res.status == STEP_LIMIT and res.steps == 1

    def test_blocked_when_top_exponent_above_one(self, table_1e6):
        res = normalize(cand(1, 1, 1, 1, 2), table_1e6)
        assert res.status == BLOCKED_EXPONENT
        assert res.candidate.exponents_list() == [1, 1, 1, 1, 2]

    def test_blocked_below_log_window(self, table_1e6):
        res = normalize(cand(1, 2), table_1e6)
        assert res.status == BLOCKED_LOG_WINDOW and res.steps == 0

    def test_table_too_small(self):
        tiny = PrimeTable.build(10)
        with pytest.raises(TableTooSmallError):
            normalize(cand(1, 1, 1, 1, 1, 1), tiny)

    def test_final_candidate_within_window(self, table_1e6):
        res = normalize(cand(1, 1, 1, 1, 1, 1), table_1e6)
        c = res.candidate
        lg = log_n(c, table_1e6, 128)
        p_r = table_1e6.nth_prime(c.r)
        assert lg.lo > p_r
        for i in range(1, c.r + 1):
            a = c.a(i)
            assert a >= compute_l(p_r, table_1e6.nth_prime(i)) or i == 1
            assert a <= compute_u(c, i, table_1e6)

    def test_rejects_bad_step_limit(self, table_1e6):
        with pytest.raises(DomainError):
            normalize(cand(1, 1), table_1e6, step_limit=0)

    def test_normalize_idempotent(self, table_1e6):
        once = normalize(cand(1, 1, 1, 1, 1, 1), table_1e6)
        again = normalize(once.candidate, table_1e6)
        assert again.steps == 0 and again.status == IN_WINDOW

    def test_beyond_a_million_positions(self):
        # wider than an exponent list may be expanded to
        t = PrimeTable.build(18_000_000)
        c = CandidateFactorization.from_runs([(3, 1), (1, 1_100_000)])
        r = c.r
        res = normalize(c, t, step_limit=2)
        assert res.status == STEP_LIMIT
        # log n < p_r, so only swaps; the largest s with a_s = 1 < L(p_s)
        # is the last s with p_s^2 <= p_r
        p_r = t.nth_prime(r)
        assert t.nth_prime(570) ** 2 <= p_r < t.nth_prime(571) ** 2
        assert [(s["action"], s["index"], s["removed_prime"]) for s in res.trace] == [
            ("swap", 570, p_r), ("swap", 569, t.nth_prime(r - 1))]
        assert all(s["ratio_certainly_below_one"] for s in res.trace)
        assert res.candidate.runs == ((3, 1), (1, 567), (2, 2), (1, r - 572))
        assert not res.candidate.canonical


def _edit_by_list(c, edits):
    """The exponent-list edit that normalize's run edits replace."""
    exps = c.exponents_list()
    for i, delta in edits.items():
        exps[i - 1] += delta
        if exps[i - 1] == 0 and i != len(exps):
            raise InvariantError(f"divide at interior index {i} would leave a hole")
    return CandidateFactorization.from_exponents(exps)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))
def test_run_edits_match_exponent_list_path(exps):
    if not any(exps):
        exps = exps + [1]
    c = CandidateFactorization.from_exponents(exps)
    for s in range(1, c.r + 1):
        if c.a(s) >= 1:
            try:
                want = _edit_by_list(c, {s: -1})
            except (InvariantError, DomainError) as e:
                # an interior hole, or nothing left after the last factor
                with pytest.raises(type(e)):
                    _edited(c, {s: -1}, c.r)
            else:
                got, r, before = _edited(c, {s: -1}, c.r)
                assert (got.runs, got.canonical) == (want.runs, want.canonical)
                assert (r, before) == (got.r, {s: c.a(s)})
        if s < c.r:
            want = _edit_by_list(c, {s: 1, c.r: -1})
            got, r, before = _edited(c, {s: 1, c.r: -1}, c.r)
            assert (got.runs, got.canonical) == (want.runs, want.canonical)
            assert (r, before) == (got.r, {s: c.a(s), c.r: c.a(c.r)})


_SCAN_TABLE = PrimeTable.build(1000)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                          st.integers(min_value=1, max_value=6)),
                min_size=1, max_size=12),
       st.sampled_from([[], [2], [4, 3], [12, 7]]))
@example(pieces=[(0, 1), (2, 1), (0, 1), (2, 2)], head=[])  # low corner only
def test_shape_b2_corners_match_all_pairs(pieces, head):
    # runs of equal exponents, holes and any order: B2 tests two corners
    # per pair of runs, the oracle every pair of positions
    exps = (head + [e for e, count in pieces for _ in range(count)])[:40]
    if not any(exps):
        exps.append(1)
    c = CandidateFactorization.from_exponents(exps)
    a = c.exponents_list()
    bad = b2_violations(a, _SCAN_TABLE.slice(1, c.r).tolist())
    v = run_check("shape_B2", c, _SCAN_TABLE)
    assert v.status == (FAIL if bad else PASS)
    if bad:
        w = v.witness
        assert bad.get((w["index_i"], w["index_j"])) == w["predicted"]
        assert w["exponent_j"] == a[w["index_j"] - 1]


def _old_density_status(c, t, prec):
    """B6 as rho > (1 - eps) n/phi over the whole support, the form the
    product replaced."""
    eps = audit._top_prime_bounds(t.nth_prime(c.r), prec).epsilon
    bound = iv_mul(iv_sub(iv_from_int(1), eps, prec), n_over_phi(c, t, prec), prec)
    cmp = iv_compare(rho(c, t, prec), bound)
    return {Comparison.CERTAINLY_GREATER: PASS,
            Comparison.CERTAINLY_LESS: FAIL}.get(cmp, UNKNOWN)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=30)
       .filter(any),
       st.sampled_from([64, 128, 256]))
@example(exps=[2] + [1] * 29, prec=128)  # prefix 7/8 passes, the tail fails
@example(exps=[0] + [1] * 29, prec=128)  # the hole at 2 holds no factor 1/2
def test_density_b6_matches_exact_product(exps, prec):
    c = CandidateFactorization.from_exponents(exps)
    t = _SCAN_TABLE
    exact = density_product_exact(c, t)
    eps = audit._top_prime_bounds(t.nth_prime(c.r), prec).epsilon
    v = run_check("density_B6", c, t, prec)
    # a decided B6 holds for every eps in its enclosure
    if v.status == PASS:
        assert exact > 1 - eps.lo
    elif v.status == FAIL:
        assert exact < 1 - eps.hi
    old = _old_density_status(c, t, prec)
    assert old in (UNKNOWN, v.status)
    q = v.witness["tail_from_prime"]
    read = CandidateFactorization.from_exponents(
        [a if q is None or p < q else 0
         for a, p in zip(exps, t.slice(1, len(exps)).tolist())])
    assert v.witness["product"].contains(density_product_exact(read, t))
    # an eps enclosure that holds 1 - P leaves B6 undecided at every piece
    ctx = audit._AuditContext(c, t, prec)
    ctx.top = ctx.top._replace(
        epsilon=iv_make(0, 1 - exact + Fraction(1, 2**20), prec))
    assert audit._check_density_b6(ctx)[0] == UNKNOWN


def _recorded_states(mp):
    """(candidate, carried log n or None) of every state normalize builds."""
    states = []

    class Recording(audit._AuditContext):
        def __init__(self, c, t, prec, lg=None, r=None):
            super().__init__(c, t, prec, lg, r)
            assert self.r == c.r
            states.append((c, lg))

    mp.setattr(audit, "_AuditContext", Recording)
    return states


def _intersect(a, b):
    return a.lo <= b.hi and b.lo <= a.hi


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12),
       st.sampled_from([None, 8190, 20000]), st.sampled_from([3, 256]),
       st.sampled_from([64, 128]))
def test_carried_log_n_meets_a_fresh_sum(exps, a_1, resum, prec):
    # a divide at 2 takes the sigma ratio's exact form just below its cut from
    # a_1 = 8190, and its interval form from a_1 = 20000
    exps = exps if a_1 is None else [a_1] + exps
    c = CandidateFactorization.from_exponents(exps if any(exps) else exps + [1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audit, "_RESUM_STEPS", resum)
        states = _recorded_states(mp)
        normalize(c, _SCAN_TABLE, prec, step_limit=40)
    for state, lg in states:
        if lg is not None:
            assert _intersect(lg, log_n(state, _SCAN_TABLE, prec)), state


def test_carried_log_n_stays_narrow_on_a_long_walk():
    # criterion 7's 2^(1.5e14) 3^2 5 7 11 divides out one 2 per step; with
    # no re-sum the carried width would reach about 375 fresh widths here
    steps = 1500
    with pytest.MonkeyPatch.context() as mp:
        states = _recorded_states(mp)
        sums = []
        mp.setattr(audit, "log_n", lambda *a, **k: sums.append(a[0]) or log_n(*a, **k))
        res = normalize(cand(15 * 10**13, 2, 1, 1, 1), _SCAN_TABLE, 128,
                        step_limit=steps)
    assert res.status == STEP_LIMIT and res.steps == steps
    # log n is summed for the first state and at each re-sum, never else
    assert len(sums) == 1 + steps // audit._RESUM_STEPS
    final, lg = states[-1]
    fresh = log_n(final, _SCAN_TABLE, 128)
    assert _intersect(lg, fresh)
    assert lg.width() <= 2**8 * fresh.width()


# covers the swap walk of [3] + [1]*5000 (the bench's wide normalize, 81
# steps); criterion 7's divide walk is cut after two re-sums
_WALK_TABLE = PrimeTable.build(50_000)
_WALKS = {
    "criterion_7": cand(15 * 10**13, 2, 1, 1, 1),
    "swaps_5001": CandidateFactorization.from_exponents([3] + [1] * 5000),
}
_WALK_STEPS = 600


@pytest.mark.parametrize("walk", sorted(_WALKS))
def test_one_log_per_step_and_per_sum(walk):
    # each step forms one log log n', which a carried next state keeps as
    # its log log n; a fresh sum (the first state and each re-sum) forms its
    # own; a second walk on the same table reads every cell log and prime log
    # from the caches
    c = _WALKS[walk]
    normalize(c, _WALK_TABLE, 128, step_limit=_WALK_STEPS)
    logs = []
    real_log = intervals.iv_log

    def counting_log(a, prec=128):
        logs.append(a)
        return real_log(a, prec)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (audit, factored, intervals):
            mp.setattr(mod, "iv_log", counting_log)
        states = _recorded_states(mp)
        res = normalize(c, _WALK_TABLE, 128, step_limit=_WALK_STEPS)
    assert res.steps > 80
    sums = sum(lg is None for _, lg in states[:res.steps])
    assert sums == 1 + (res.steps - 1) // audit._RESUM_STEPS
    assert len(logs) == res.steps + sums


@pytest.mark.parametrize("resum", [1, audit._RESUM_STEPS])
@pytest.mark.parametrize("walk", sorted(_WALKS))
def test_trace_ratios_match_each_state_on_its_own(walk, resum):
    # each step's ratio, endpoints included, is what its state gives on its
    # own: from the state's carried log n, or from a fresh sum, which at
    # resum = 1 every state has and the public g_ratio_* form
    t = _WALK_TABLE
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audit, "_RESUM_STEPS", resum)
        states = _recorded_states(mp)
        res = normalize(_WALKS[walk], t, 128, step_limit=_WALK_STEPS)
    assert res.steps > 80
    assert (resum == 1) == all(lg is None for _, lg in states)
    for (state, lg), step in zip(states, res.trace):
        s, divide = step["index"], step["action"] == "divide"
        if lg is None:
            ratio = (g_ratio_divide if divide else g_ratio_swap)(state, s, t, 128)
        else:
            edits = {s: -1} if divide else {s: 1, state.r: -1}
            primes = {i: t.nth_prime(i) for i in edits}
            after = factored._log_after(lg, edits, primes, 128)
            ratio = factored._g_ratio_edit(
                {i: state.a(i) for i in edits}, edits, primes, 128,
                factored._loglog_from(lg, 128),
                factored._loglog_from(after, 128))
        assert interval_to_json(iv_round(ratio, 128)) == step["ratio"]


def _scan_upper(lg, primes):
    """U(p_i) at every position, or None when one bracket is undecided."""
    try:
        return [audit._upper_bound(lg, p, 128) for p in primes]
    except audit._Indeterminate:
        return None


def _first(indices, lo=1):
    return next((i for i in indices if i >= lo), None)


def _expect(status_if_none, index):
    return (status_if_none, None) if index is None else (FAIL, index)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.integers(min_value=1, max_value=12)),
                min_size=1, max_size=40))
@example(pieces=[(0, 2)])  # a run of zeros: the L prefix ends inside it
def test_window_indices_match_linear_scan(pieces):
    # runs of equal exponents put violations inside multi-position runs,
    # where the checks and normalize bisect instead of testing each index
    exps = [e for e, count in pieces for _ in range(count)][:40]
    if not any(exps):
        exps.append(1)
    t = _SCAN_TABLE
    c = CandidateFactorization.from_exponents(exps)
    a = c.exponents_list()
    r = c.r
    primes = [t.nth_prime(i) for i in range(1, r + 1)]
    p_r = primes[-1]
    positions = range(1, r + 1)
    low = [i for i in positions if a[i - 1] < compute_l(p_r, primes[i - 1])]
    b4 = [i for i in positions
          if i >= 2 and primes[i - 1] ** a[i - 1] >= 2 ** (a[0] + 2)]

    def got(check_id):
        v = run_check(check_id, c, t)
        return v.status, v.witness.get("index")

    if r < 2:
        assert got("lower_window_4")[0] == got("shape_B5")[0] == NOT_APPLICABLE
    else:
        assert got("lower_window_4") == _expect(PASS, _first(low))
        assert got("shape_B5") == _expect(PASS, _first(low, 2))
    assert got("shape_B4") == _expect(PASS, _first(b4))

    lg = log_n(c, t)
    state = intervals.iv_compare(lg, p_r)
    upper = (_scan_upper(lg, primes)
             if state is intervals.Comparison.CERTAINLY_GREATER else None)
    above = None if upper is None else [
        i for i in positions if a[i - 1] > upper[i - 1]]
    if above is not None:
        want = _first(above)
        v = run_check("upper_window_3", c, t)
        assert (v.status, v.witness.get("index")) == _expect(PASS, want)
        if want is not None:
            assert v.witness["upper_bound"] == upper[want - 1]
    elif state is intervals.Comparison.CERTAINLY_LESS:
        assert got("upper_window_3")[0] == NOT_APPLICABLE

    if state is intervals.Comparison.OVERLAPPING or (
            state is intervals.Comparison.CERTAINLY_GREATER and above is None):
        return  # normalize stops as indeterminate
    res = normalize(c, t, step_limit=1)
    steps = [(s["action"], s["index"]) for s in res.trace]
    if above:
        assert steps == [("divide", max(above))]
    elif low and a[-1] == 1:
        assert steps == [("swap", max(low))]
    else:
        assert steps == []


# top primes next to a power of 2, where the integer root of p_r sits next
# to a prime: 127 = 2^7 - 1 (isqrt 11), 257 = 2^8 + 1, 8191 = 2^13 - 1,
# 65537 = 2^16 + 1 and 131071 = 2^17 - 1 (cube root 50, isqrt 362)
_L_TABLE = PrimeTable.build(131071)
_NEAR_POWERS = (127, 257, 8191, 65537, 131071)
_L_BY_TOP: dict = {}


def _l_values(r):
    """L(p_i) at every position up to r, by compute_l."""
    if r not in _L_BY_TOP:
        p_r = _L_TABLE.nth_prime(r)
        _L_BY_TOP[r] = [compute_l(p_r, p) for p in _L_TABLE.slice(1, r).tolist()]
    return _L_BY_TOP[r]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=8)
                          | st.just(15 * 10**13),
                          st.integers(min_value=1, max_value=60)),
                min_size=1, max_size=10),
       st.sampled_from((None,) + _NEAR_POWERS), st.integers(min_value=1, max_value=80))
@example(pieces=[(1, 30)], top=127, lo=1)  # L ends at p = 11 = isqrt(127)
@example(pieces=[(2, 40), (0, 20)], top=131071, lo=1)  # at 47, the cube root's prime
@example(pieces=[(15 * 10**13, 1), (0, 5)], top=None, lo=1)
def test_l_violations_match_a_linear_scan(pieces, top, lo):
    # the least violation from lo and the largest, which normalize swaps
    # into, against compute_l at every position; runs of exponent 0 and a
    # huge exponent included
    t = _L_TABLE
    r = len(t.primes_in(2, top)) if top else sum(n for _, n in pieces) + 1
    runs, room = [], r - 1
    for e, n in pieces:
        runs.append((e, min(n, room)))
        room -= runs[-1][1]
    c = CandidateFactorization._from_pieces(runs + [(1, room + 1)])
    assert c.r == r
    a = [run.exponent for run in c.runs for _ in range(run.count)]
    low = [i for i, (e, l) in enumerate(zip(a, _l_values(r)), 1) if e < l]
    ctx = audit._AuditContext(c, t, 128)
    assert audit._below_l(ctx, last=True) == (max(low) if low else None)
    assert audit._below_l(ctx, lo=lo) == next((i for i in low if i >= lo), None)
