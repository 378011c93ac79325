"""Run-length candidates: round-trips, derived scalars, local G ratios."""

import json
from fractions import Fraction
from importlib import resources

import jsonschema
import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
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
    Run,
    _cell_pieces,
    _g_ratio_edit,
    _log_after,
    _loglog_from,
    _prod,
    _sigma_ratio,
    big_g,
    is_sum_of_two_squares,
    log_n,
    materialize,
    n_over_phi,
    rho,
)
from robinaudit.audit import full_audit, normalize
from robinaudit.intervals import (
    _EXACT_POW_BITS,
    _pow_bits,
    iv_add,
    iv_certainly_less,
    iv_div,
    iv_from_int,
    iv_from_int_rounded,
    iv_log,
    iv_make,
    iv_mul,
)
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
    with pytest.raises(DomainError, match="runs 0 and 1 share exponent 2"):
        CandidateFactorization.from_runs([(2, 1), (2, 1)])
    with pytest.raises(DomainError, match="strictly decrease, got 1 then 2"):
        CandidateFactorization.from_runs([(1, 1), (2, 1)])
    with pytest.raises(DomainError, match="strictly decrease, got 0 then 1"):
        CandidateFactorization.from_runs([(2, 1), (0, 1), (1, 1)])
    with pytest.raises(DomainError, match="trailing zero-exponent run"):
        CandidateFactorization.from_runs([(0, 1)])


@pytest.mark.parametrize("runs, message", [
    ((Run(2, 1), Run(-1, 1), Run(1, 1)), "run 1 has negative exponent"),
    ((Run(2, 1), Run(0, 1)), "trailing zero-exponent run"),
    ((Run(2, 1), Run(2, 1)), "runs 0 and 1 share exponent 2"),
    ((Run(1, 1), Run(0, 2), Run(0, 1), Run(1, 1)),
     "runs 1 and 2 share exponent 0"),
    ((Run(1, 0),), "run 0 has count 0"),
], ids=["negative", "trailing_zero", "equal_neighbours", "equal_zero_runs",
        "zero_count"])
def test_constructor_refuses_all_but_one_run_list(runs, message):
    # each integer has one run list, the one _from_pieces builds
    with pytest.raises(DomainError, match=message):
        CandidateFactorization(runs=runs)


def test_shape_is_read_from_the_runs():
    # 18 = 2 * 3^2 rises; no stored flag can call it canonical
    with pytest.raises(TypeError):
        CandidateFactorization(runs=(Run(1, 1), Run(2, 1)), canonical=True)
    rising = CandidateFactorization(runs=(Run(1, 1), Run(2, 1)))
    assert not rising.canonical
    assert rising == CandidateFactorization.from_exponents([1, 2])
    # 36 = 2^2 3^2 has the one run list [(2, 2)], however it is built
    assert (CandidateFactorization(runs=(Run(2, 2),))
            == CandidateFactorization.from_exponents([2, 2]))
    assert CandidateFactorization.from_exponents([2, 2]).canonical


def test_explicit_forms_have_a_width_budget():
    with pytest.raises(ResourceBudgetError, match="explicit exponent list"):
        CandidateFactorization.from_exponents([1] * (10**6 + 1))
    wide = CandidateFactorization.from_runs([(1, 10**6 + 1)])
    with pytest.raises(ResourceBudgetError, match="too wide to expand"):
        wide.exponents_list()


def test_text_form_names_huge_ints_by_size():
    huge = 10**5000  # CPython formats no int of more than 4300 digits
    c = CandidateFactorization.from_runs([(huge + 1, 1), (huge, 1)])
    assert str(c) == "p[1]^<16610-bit integer>*p[2]^<16610-bit integer>"
    wide = CandidateFactorization.from_runs([(2, 1), (1, huge)])
    assert str(wide) == "p[1]^2*p[2..<16610-bit integer>]^1"
    small = CandidateFactorization.from_runs([(4, 1), (2, 1), (1, 2)])
    assert str(small) == "p[1]^4*p[2]^2*p[3..4]^1"


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


@pytest.mark.parametrize("make", [
    lambda: CandidateFactorization(runs=()),
    lambda: CandidateFactorization.from_runs([]),
    lambda: CandidateFactorization.from_exponents([0, 0]),
], ids=["direct", "from_runs", "from_exponents"])
def test_empty_candidate_rejected(make):
    # it has no factorization, so no rho, JSON form or audit either
    with pytest.raises(DomainError, match="empty candidate"):
        make()


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


# (document, field, message) of each refusal at the JSON trust boundary
REFUSALS = {
    "document is a list": ([], "<document>", "must be an object"),
    "document is a number": (3, "<document>", "must be an object"),
    "neither form": ({}, "<document>", 'needs a "runs" or "exponents"'),
    "runs empty": ({"runs": []}, "runs", "non-empty array"),
    "runs an object": ({"runs": {"exponent": 1, "count": 1}}, "runs",
                       "non-empty array"),
    "exponents empty": ({"exponents": []}, "exponents", "non-empty array"),
    "exponents a number": ({"exponents": 4}, "exponents", "non-empty array"),
    "run a list": ({"runs": [[1, 1]]}, "runs[0]", "must be an object"),
    "run exponent a float": ({"runs": [{"exponent": 1.5, "count": 1}]},
                             "runs[0].exponent", "must be an integer"),
    "run count a bool": ({"runs": [{"exponent": 1, "count": True}]},
                         "runs[0].count", "must be an integer"),
    "run count missing": ({"runs": [{"exponent": 1}]},
                          "runs[0].count", "must be an integer"),
    "exponent a bool": ({"exponents": [True]}, "exponents[0]",
                        "must be an integer"),
    "exponent a float": ({"exponents": [1, 2.0]}, "exponents[1]",
                         "must be an integer"),
    "run count 0": ({"runs": [{"exponent": 1, "count": 0}]},
                    "runs[0].count", "must be >= 1"),
    "run exponent negative": ({"runs": [{"exponent": -1, "count": 1}]},
                              "runs[0].exponent", "must be non-negative"),
    "exponent negative": ({"exponents": [2, -1]}, "exponents[1]",
                          "must be non-negative"),
    "runs all zero": ({"runs": [{"exponent": 0, "count": 3}]}, "runs",
                      "needs a positive exponent"),
    "exponents all zero": ({"exponents": [0, 0]}, "exponents",
                           "needs a positive exponent"),
}


@pytest.mark.parametrize("doc, field, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_json_refusals_name_field_and_reason(doc, field, message):
    for form in (doc, json.dumps(doc)):
        with pytest.raises(CandidateFormatError) as e:
            CandidateFactorization.from_json(form)
        assert e.value.field == field and message in str(e.value)


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


def _schema(name):
    return json.loads(resources.files("robinaudit").joinpath(
        f"schemas/{name}.schema.json").read_text())


CANDIDATE_SCHEMA = _schema("candidate")

_EXPONENT_LISTS = st.lists(st.integers(0, 12), min_size=1, max_size=40).filter(any)


@st.composite
def _built_candidates(draw):
    """A candidate from from_exponents, from_runs or _from_pieces; runs
    and pieces span up to 3 * 10^6 positions, wider than the exponents
    form allows."""
    kind = draw(st.sampled_from(["exponents", "runs", "pieces"]))
    if kind == "exponents":
        return CandidateFactorization.from_exponents(draw(_EXPONENT_LISTS))
    count = st.integers(1, 3_000_000)
    if kind == "runs":
        exps = sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=6)),
                      reverse=True)
        return CandidateFactorization.from_runs([(e, draw(count)) for e in exps])
    pieces = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3_000_000)),
                           min_size=1, max_size=10))
    pieces.append((draw(st.integers(1, 12)), draw(count)))  # some exponent > 0
    return CandidateFactorization._from_pieces(pieces)


def _assert_round_trip(c):
    doc = c.to_json()
    jsonschema.validate(doc, CANDIDATE_SCHEMA)
    assert CandidateFactorization.from_json(doc) == c
    assert CandidateFactorization.from_json(json.dumps(doc)) == c


@settings(max_examples=300, deadline=None)
@given(_built_candidates())
def test_built_candidates_round_trip_through_schema_valid_json(c):
    _assert_round_trip(c)


@settings(max_examples=60, deadline=None)
@given(exps=_EXPONENT_LISTS)
def test_normalize_outputs_round_trip_through_schema_valid_json(exps, table_1e5):
    res = normalize(CandidateFactorization.from_exponents(exps), table_1e5, 128,
                    step_limit=64)
    jsonschema.validate(res.to_json(), _schema("normalize_report"))
    jsonschema.validate(full_audit(res.candidate, table_1e5).to_json(),
                        _schema("audit_report"))
    _assert_round_trip(res.candidate)


def test_wide_non_canonical_normalize_output_round_trips():
    # over 10^6 positions, so only the runs form can hold it
    c = CandidateFactorization._from_pieces([(1, 5), (2, 1), (1, 1_000_000)])
    out = normalize(c, PrimeTable.build(15_500_000), 128, step_limit=1).candidate
    assert out.r > 10**6 and not out.canonical
    _assert_round_trip(out)


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


# 512-bit sums of log p_1..p_k, k = 0, 1, ...; the primes at a position
# are the same in every table that holds it
_MP_LOG_SUMS = [mpmath.mpf(0)]


def _mp_log_n(c, t):
    """sum a_i log p_i as an exact Fraction of 512-bit mpmath sums: each
    run's e times the difference of two sums of log p."""
    with mpmath.mp.workprec(512):
        if c.r >= len(_MP_LOG_SUMS):
            for p in t.slice(len(_MP_LOG_SUMS), c.r).tolist():
                _MP_LOG_SUMS.append(_MP_LOG_SUMS[-1] + mpmath.log(p))
        total = mpmath.fsum(e * (_MP_LOG_SUMS[end] - _MP_LOG_SUMS[start - 1])
                            for start, end, e in c.run_bounds())
        man, exp = total.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _pieces(start, end, e=1):
    """The cell pieces of a candidate whose exponents are 0 before start
    and e on start..end."""
    c = CandidateFactorization._from_pieces([(0, start - 1), (e, end - start + 1)])
    return list(_cell_pieces(c))


def test_cells_sit_on_a_fixed_grid():
    assert _CHUNK == 512
    assert _pieces(4, 600) == [(4, 512, 1), (513, 600, 1)]
    assert _pieces(601, 1300, 3) == [(601, 1024, 3), (1025, 1300, 3)]
    assert _pieces(1024, 1025, 2) == [(1024, 1024, 2), (1025, 1025, 2)]
    # run ends cut too, and a zero-exponent run yields nothing
    c = CandidateFactorization._from_pieces([(2, 600), (0, 10), (1, 500)])
    assert list(_cell_pieces(c)) == [(1, 512, 2), (513, 600, 2),
                                     (611, 1024, 1), (1025, 1110, 1)]


@pytest.mark.parametrize("c", [WIDE, HOLEY], ids=["canonical", "holes"])
def test_aggregates_across_cell_edges(c, table_1e6):
    assert c.r > 2 * _CHUNK
    assert rho(c, table_1e6).contains(rho_exact(c, table_1e6))
    assert n_over_phi(c, table_1e6).contains(n_over_phi_exact(c, table_1e6))
    lg = log_n(c, table_1e6)
    assert lg.contains(_mp_log_n(c, table_1e6))
    assert lg.width() < Fraction(1, 10**30)


# p_9592 = 99991: 18 whole cells
_INDEX_TABLE_LIMIT = 10**5
_INDEX_TABLE = PrimeTable.build(_INDEX_TABLE_LIMIT)
# run ends at the cell edges and one position either side of them
_EDGES = [k * _CHUNK + d for k in range(1, 19) for d in (-1, 0, 1)]


@st.composite
def _cell_run_lists(draw):
    """Run lists whose positive runs cover 0, 1, 2 or many whole cells,
    with zero runs between them and exponents 1, 2 and 2^70."""
    ends = sorted(draw(st.lists(st.one_of(st.sampled_from(_EDGES),
                                          st.integers(1, 9500)),
                                min_size=1, max_size=6, unique=True)))
    exps = draw(st.lists(st.sampled_from([0, 1, 2, 2**70]),
                         min_size=len(ends), max_size=len(ends)))
    exps[-1] = exps[-1] or 1
    return CandidateFactorization._from_pieces(
        (e, end - start) for start, end, e in zip([0] + ends, ends, exps))


def _whole_cells(start, end):
    """Number of whole cells inside positions start..end."""
    return max(0, end // _CHUNK - (start + _CHUNK - 2) // _CHUNK)


def _cell_walk(c, t, prec):
    """log n the way every run took it before the prefix of cell logs:
    e times the log of each cell piece's exact product, added in order,
    formed afresh."""
    total = iv_from_int(0)
    for i, j, e in _cell_pieces(c):
        cell = iv_log(iv_from_int_rounded(_prod(t.slice(i, j).tolist()), prec), prec)
        total = iv_add(total, cell if e == 1 else iv_mul(iv_from_int(e), cell, prec),
                       prec)
    return total


_INDEX_EXAMPLES = [
    [(0, 512), (1, 512)],  # one whole cell, not the first
    [(1, 511), (2, 1026)],  # 512..1537: two whole cells and a prime at each end
    [(0, 1023), (2**70, 2050), (0, 7), (1, 9)],  # 1024..3073: whole cells 3..6
    [(3, 1), (1, 9215)],  # 2..9216: every cell but the first whole
    [(2, 1025), (1, 8191)],  # whole cells 1 and 3..18 in two runs
]


@settings(max_examples=60, deadline=None)
@given(_cell_run_lists())
@example(CandidateFactorization._from_pieces(_INDEX_EXAMPLES[0]))
@example(CandidateFactorization._from_pieces(_INDEX_EXAMPLES[1]))
@example(CandidateFactorization._from_pieces(_INDEX_EXAMPLES[2]))
@example(CandidateFactorization._from_pieces(_INDEX_EXAMPLES[3]))
@example(CandidateFactorization._from_pieces(_INDEX_EXAMPLES[4]))
def test_prefix_log_n_meets_the_oracle_and_the_cell_walk(c):
    # one table at rising precision, so an entry of a lower precision that
    # answered a higher one would show as a wide enclosure
    t, exact = _INDEX_TABLE, _mp_log_n(c, _INDEX_TABLE)
    short = all(_whole_cells(start, end) < 2 for start, end, e in c.run_bounds() if e)
    for prec in (64, 128, 256):
        lg, walk = log_n(c, t, prec), _cell_walk(c, t, prec)
        assert lg.contains(exact), prec
        assert lg.lo <= walk.hi and walk.lo <= lg.hi, prec
        assert lg.width() <= lg.lo / 2 ** (prec - 32), prec
        if short:  # runs over fewer than two whole cells keep the cell walk
            assert (lg._lo, lg._hi) == (walk._lo, walk._hi), prec


@settings(max_examples=30, deadline=None)
@given(_cell_run_lists(), st.lists(_cell_run_lists(), max_size=3))
@example(CandidateFactorization._from_pieces(_INDEX_EXAMPLES[2]),
         [CandidateFactorization._from_pieces(_INDEX_EXAMPLES[3])])
def test_prefix_log_n_bits_do_not_depend_on_history(c, others):
    # a fresh table, the shared table after other candidates at every
    # precision, and the shared table after its memo is emptied
    fresh = PrimeTable.build(_INDEX_TABLE_LIMIT)
    want = {prec: log_n(c, fresh, prec) for prec in (64, 128, 256)}
    for other in others:
        for prec in (256, 64, 128):
            log_n(other, _INDEX_TABLE, prec)
    for prec, v in want.items():
        assert log_n(c, _INDEX_TABLE, prec) == v, prec
    _INDEX_TABLE._memo.clear()
    for prec in (128, 64, 256):
        assert log_n(c, _INDEX_TABLE, prec) == want[prec], prec


@pytest.mark.parametrize("prec", [64, 128])
def test_prefix_span_is_narrower_than_its_cell_walk(prec, table_1e6):
    # whole cells 101..153 of 153: Lambda_153 - Lambda_100, summed above the
    # precision, against the walk's 53 cell logs and its roundings
    c = CandidateFactorization._from_pieces([(0, 100 * _CHUNK), (1, 53 * _CHUNK)])
    assert log_n(c, table_1e6, prec).width() < _cell_walk(c, table_1e6, prec).width()


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
    assert iv_certainly_less(rho(C_5040, table_1e6), nphi)


def fresh_ratio(c, edits, t, prec=128, lg=None):
    """Enclosure of G(n)/G(n') for n' = n * Pi p_i^edits[i], through the
    ratio core of a normalize step, from log n ``lg`` or, when it is None,
    a fresh sum; give the edits in decreasing i, as normalize does."""
    lg = log_n(c, t, prec) if lg is None else lg
    primes = {i: t.nth_prime(i) for i in edits}
    after = _log_after(lg, edits, primes, prec)
    return _g_ratio_edit({i: c.a(i) for i in edits}, edits, primes, prec,
                         _loglog_from(lg, prec), _loglog_from(after, prec))


def _independent_ratio(c, edits, t, prec=512):
    """G(c)/G(c') via two full evaluations at high precision."""
    exps = c.exponents_list()
    for i, delta in edits.items():
        exps[i - 1] += delta
    c1 = CandidateFactorization.from_exponents(exps)  # trailing zeros go
    return iv_div(big_g(c, t, prec), big_g(c1, t, prec), prec)


def test_g_ratio_divide_consistent(table_1e6):
    for c, s in ((C_5040, 1), (C_5040, 2), (C_5040, 4),
                 (C_55440, 5), (C_55440, 1)):
        local = fresh_ratio(c, {s: -1}, table_1e6)
        indep = _independent_ratio(c, {s: -1}, table_1e6)
        # both enclose the true ratio; the high-precision midpoint of the
        # independent route must land inside the local enclosure
        assert local.contains((indep.lo + indep.hi) / 2)


def test_g_ratio_swap_consistent(table_1e6):
    c = C_55440  # a_r = 1 at p_5 = 11
    for s in (1, 2, 3):
        edits = {c.r: -1, s: 1}
        local = fresh_ratio(c, edits, table_1e6)
        indep = _independent_ratio(c, edits, table_1e6)
        assert local.contains((indep.lo + indep.hi) / 2)


def _g_ratio_oracle(exps, edited, t):
    """rho(n)/rho(n') * log log n'/log log n for the exponent lists of n and
    n': exact rho, mpmath logs at 2,048 bits, returned as a Fraction."""
    q = (rho_exact(CandidateFactorization.from_exponents(exps), t)
         / rho_exact(CandidateFactorization.from_exponents(edited), t))
    with mpmath.mp.workprec(2048):
        def loglog(v):
            return mpmath.log(mpmath.fsum(
                a * mpmath.log(p) for a, p in zip(v, t.slice(1, len(v)).tolist())))

        man, exp = (mpmath.mpf(q.numerator) / q.denominator
                    * loglog(edited) / loglog(exps)).man_exp
    return Fraction(man) * Fraction(2) ** exp


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10),
       st.sampled_from([None, 8189, 8190, 8191, 20_000]))
def test_g_ratio_edits_contain_oracle(exps, a_1):
    """Every divide normalize may take (a_s >= 2, or the top with a_r = 1)
    and every swap (a_r = 1, s < r, a_s >= 0: a swap may fill a hole)
    encloses the true ratio; a huge a_1 takes the interval branch of the
    sigma ratio."""
    t = _HYP_TABLE
    exps = ([a_1] if a_1 else []) + exps
    if not any(exps):
        exps.append(1)
    c = CandidateFactorization.from_exponents(exps)
    exps, r = c.exponents_list(), c.r
    steps = [{s: -1} for s in range(1, r + 1)
             if exps[s - 1] >= 2 or (s == r and exps[s - 1] == 1)]
    if exps[-1] == 1:
        steps += [{r: -1, s: 1} for s in range(1, r)]
    for edits in steps:
        edited = list(exps)
        for i, delta in edits.items():
            edited[i - 1] += delta
        while edited and not edited[-1]:
            edited.pop()
        if edited in ([], [1]):  # n' <= 2: log log n' is not positive
            with pytest.raises(DomainError):
                fresh_ratio(c, edits, t)
        else:
            assert fresh_ratio(c, edits, t).contains(
                _g_ratio_oracle(exps, edited, t)), edits


@pytest.mark.parametrize("p", [2, 3])
def test_sigma_ratio_on_both_sides_of_the_exact_cut(p):
    cut = next(a for a in range(1, 10**5) if _pow_bits(p, a + 1) > _EXACT_POW_BITS)
    for a in sorted({1, 2, cut - 2, cut - 1, cut, cut + 1, 10**4, 2 * 10**4}):
        for b in {0, a - 1, a + 1}:
            want = Fraction((p ** (a + 1) - 1) * p**b, (p ** (b + 1) - 1) * p**a)
            got = _sigma_ratio(p, a, b, 128)
            if max(a, b) < cut:
                assert Fraction(*got) == want, (a, b)
            else:
                assert got.contains(want), (a, b)
                assert got.width() < Fraction(1, 2**120), (a, b)


@pytest.mark.parametrize("s", [1, 2])
def test_integer_sigma_part_matches_the_fraction_path(s):
    # with both log log factors exactly 1, _g_ratio_edit is its sigma part:
    # the exact ratios as one unreduced integer fraction, rounded outward
    # once, bit for bit what the reduced Fraction gives; past the cut the
    # edited prime's interval ratio multiplies in
    t, r, one = _HYP_TABLE, 3, iv_from_int(1)
    p = t.nth_prime(s)
    cut = next(a for a in range(1, 10**5) if _pow_bits(p, a + 1) > _EXACT_POW_BITS)
    for a in (0, 1, 2, cut - 2, cut - 1, cut, cut + 1):
        for edits in ({s: -1}, {s: 1, r: -1}):
            if a + edits[s] < 0:
                continue
            before = {s: a, r: 1}
            exact, parts = Fraction(1), []
            for i, delta in edits.items():
                q, x = t.nth_prime(i), before[i]
                y = x + delta
                if _pow_bits(q, max(x, y) + 1) <= _EXACT_POW_BITS:
                    exact *= Fraction((q ** (x + 1) - 1) * q**y,
                                      (q ** (y + 1) - 1) * q**x)
                else:
                    parts.append(_sigma_ratio(q, x, y, 128))
            assert (max(a, a + edits[s]) + 1 > cut) == bool(parts), (a, edits)
            want = iv_make(exact, exact, 128)
            for f in parts:
                want = iv_mul(want, f, 128)
            got = _g_ratio_edit({i: before[i] for i in edits}, edits,
                                {i: t.nth_prime(i) for i in edits}, 128, one, one)
            assert (got._lo, got._hi) == (want._lo, want._hi), (a, edits)


def test_rho_beyond_the_exact_cut(table_1e6):
    # a_1 > 8192 leaves exact powers of 2; at 3000 over p_1..p_12 the cell
    # mixes exact factors (p <= 31) with interval ones (p = 37)
    for c in (CandidateFactorization.from_exponents([9000, 3, 1]),
              CandidateFactorization.from_runs([(20_000, 1), (2, 2)]),
              CandidateFactorization.from_runs([(3000, 12)])):
        got = rho(c, table_1e6)
        assert got.contains(rho_exact(c, table_1e6)), c
        assert got.width() < Fraction(1, 2**110), c


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
