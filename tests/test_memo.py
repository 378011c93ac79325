"""The PrimeTable memo of cell enclosures and M(k), and the process caches
of prime logs and top-prime bounds: a hit must return exactly what fresh
work returns, at the precision asked for, and the memo must stay within
its cap."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinaudit import factored, primes
from robinaudit.audit import (
    _top_prime_bounds,
    compute_m,
    compute_u,
    full_audit,
    normalize,
    report_to_json_str,
)
from robinaudit.factored import CandidateFactorization, log_n, n_over_phi, rho
from robinaudit.intervals import (
    Constants,
    iv_add,
    iv_div,
    iv_exp,
    iv_from_int,
    iv_log,
    iv_log_rational,
    iv_make,
    iv_mul,
    iv_neg,
    iv_sqrt,
)
from robinaudit.primes import PrimeTable

# p_30 = 113: audit and normalize read no table position above r
LIMIT = 1000


def outputs(c, t, prec):
    report = report_to_json_str(
        full_audit(c, t, prec, include_alt_log_window=True))
    trace = json.dumps(normalize(c, t, prec).to_json(), sort_keys=True)
    return report, trace


def aggregates(c, t, prec):
    return (log_n(c, t, prec), rho(c, t, prec), n_over_phi(c, t, prec),
            compute_m(c.r, t, prec))


class _CapChecked(dict):
    """A memo that fails the test on any insertion that passes the cap."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        assert len(self) <= primes._MEMO_CAP, key


_EXPONENTS = st.lists(st.integers(0, 12), min_size=1, max_size=30).filter(any)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_EXPONENTS, st.sampled_from([64, 128, 256])),
             min_size=1, max_size=5),
    st.sampled_from([None, 1, 3, 16, 64]),
)
def test_hits_equal_fresh_work(ops, cap):
    # canonical and non-canonical vectors at mixed precisions on one table,
    # against a new table per operation; a small cap empties the memo in
    # the middle of an audit
    cands = [(CandidateFactorization.from_exponents(e), prec) for e, prec in ops]
    fresh = [outputs(c, PrimeTable.build(LIMIT), prec) for c, prec in cands]
    shared = PrimeTable.build(LIMIT)
    shared._memo = _CapChecked()
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(primes, "_MEMO_CAP", cap)
        for (c, prec), expect in zip(cands, fresh):
            assert outputs(c, shared, prec) == expect, (c, prec)
            assert outputs(c, shared, prec) == expect, (c, prec)


def test_entries_answer_only_their_precision():
    # two cells, exact-power rho blocks at e = 3 and 2
    c = CandidateFactorization.from_runs([(3, 2), (2, 3), (1, 600)])
    limit = 10**4
    expect = {prec: aggregates(c, PrimeTable.build(limit), prec)
              for prec in (128, 256)}
    t = PrimeTable.build(limit)
    full_audit(c, t, 128)
    assert t._memo and {key[-1] for key in t._memo} == {128}
    for key in t._memo:
        t._memo[key] = iv_from_int(0)
    # a 256-bit request that read a 128-bit entry would see the poison
    assert aggregates(c, t, 256) == expect[256]
    assert log_n(c, t, 128) != expect[128][0]


def test_overflow_empties_the_memo():
    c = CandidateFactorization.from_exponents([5, 3, 2, 2, 1, 1, 1])
    expect = outputs(c, PrimeTable.build(LIMIT), 128)
    t = PrimeTable.build(LIMIT)
    t._memo.update(((("filler", k), k) for k in range(primes._MEMO_CAP)))
    assert outputs(c, t, 128) == expect
    assert 0 < len(t._memo) <= primes._MEMO_CAP
    assert not any(key[0] == "filler" for key in t._memo)


@pytest.fixture
def formed(monkeypatch):
    """Sizes of the exact cell products formed while the test runs."""
    sizes = []
    real = factored._prod

    def counting(values):
        items = list(values)
        sizes.append(len(items))
        return real(items)

    monkeypatch.setattr(factored, "_prod", counting)
    return sizes


WIDE = CandidateFactorization.from_runs([(4, 1), (2, 2), (1, 1500)])
WIDE_LIMIT = 20000  # p_1500 = 12553
# a short head of falling exponents over a bulk run at exponent 2
POWER = CandidateFactorization.from_runs(
    [(40, 2), (31, 1), (17, 3), (9, 2), (3, 4), (2, 1488)])


@pytest.mark.parametrize("c", [WIDE, POWER], ids=["canonical", "power"])
def test_cold_audit_forms_few_products(c, formed):
    # on a fresh table a cell piece costs at most Pi p for its log and
    # Pi p, Pi (p - 1) for M(r)'s n/phi, and a B6 piece read two more
    report = full_audit(c, PrimeTable.build(WIDE_LIMIT))
    b6 = report.verdict_for("density_B6").witness["pieces_read"]
    assert b6 >= 1
    assert 0 < len(formed) <= 3 * len(list(factored._cell_pieces(c))) + 2 * b6


def test_second_compute_u_forms_no_product(formed):
    expect = [compute_u(WIDE, i, PrimeTable.build(WIDE_LIMIT))
              for i in (1, 2, 3)]
    t = PrimeTable.build(WIDE_LIMIT)
    formed.clear()
    assert compute_u(WIDE, 1, t) == expect[0]
    assert formed
    formed.clear()
    assert [compute_u(WIDE, i, t) for i in (1, 2, 3)] == expect
    assert formed == []


def test_repeated_audit_and_normalize_form_no_product(formed):
    t = PrimeTable.build(WIDE_LIMIT)
    first = [report_to_json_str(full_audit(WIDE, t, prec)) for prec in (128, 256)]
    steps = normalize(WIDE, t, 128, step_limit=8).to_json()
    assert formed
    formed.clear()
    assert [report_to_json_str(full_audit(WIDE, t, prec))
            for prec in (128, 256)] == first
    assert normalize(WIDE, t, 128, step_limit=8).to_json() == steps
    assert formed == []


def test_exponent_scaled_cell_logs_answer_only_their_key():
    # the pieces 1..300, 301..512 and 513..600 under exponents 4, 3 and
    # then 3, 2: the second candidate meets cells the first one scaled
    cands = [CandidateFactorization.from_runs([(e + 1, 300), (e, 300), (1, 5)])
             for e in (3, 2)]
    t = PrimeTable.build(10**4)
    warm = {(k, prec): log_n(c, t, prec)
            for prec in (128, 256) for k, c in enumerate(cands)}
    assert {key[3] for key in t._memo if key[0] == "elog"} == {2, 3, 4}
    for (k, prec), v in warm.items():
        t._memo.clear()
        assert log_n(cands[k], t, prec) == v, (k, prec)


def _old_top_prime_bounds(p_r, prec):
    """The bounds as the checks formed them inline, field by field."""
    slack, lower, upper, three_halves = (
        iv_make(Fraction(d), Fraction(d), prec)
        for d in (Constants.log_window_slack, Constants.s_window_lower,
                  Constants.s_window_upper, Fraction(3, 2)))
    lp = iv_log(iv_from_int(p_r), prec)
    root = iv_sqrt(iv_from_int(p_r), prec)
    return (
        iv_mul(iv_from_int(p_r),
               iv_add(iv_from_int(1), iv_div(slack, lp, prec), prec), prec),
        iv_mul(iv_div(iv_from_int(1), lp, prec),
               iv_add(iv_from_int(1), iv_div(three_halves, lp, prec), prec), prec),
        iv_exp(iv_neg(iv_div(iv_from_int(1), lp, prec)), prec),
        iv_mul(lower, root, prec),
        iv_mul(upper, root, prec),
    )


@pytest.mark.parametrize("n", [2, 7, 10, 113, 7919, 1_000_003])
def test_process_caches_answer_only_their_precision(n):
    # 256 bits first after a clear: a key that ignored prec would hand
    # the 256-bit enclosure to the 128- and 64-bit requests; the second
    # round reads the caches.  f is the rational a CA exponent probe at
    # e = 1 compares n^eps with
    f = Fraction(n * n - 1, n * n - n)
    iv_log_rational.cache_clear()
    _top_prime_bounds.cache_clear()
    for prec in (256, 128, 64) * 2:
        assert iv_log_rational(n, prec) == iv_log(iv_from_int(n), prec), prec
        assert iv_log_rational(f, prec) == iv_log(f, prec), prec
        assert tuple(_top_prime_bounds(n, prec)) == \
            _old_top_prime_bounds(n, prec), prec
