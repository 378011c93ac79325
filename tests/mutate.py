"""Mutation check: break the package one listed way at a time and see
whether the tests that guard that code notice.

    python tests/mutate.py             # every mutant
    python tests/mutate.py -k bound    # mutants whose name contains "bound"
    python tests/mutate.py --list

Each mutant is (name, file under src/robinaudit/, old text, new text,
test ids).  For each one the script copies src/, tests/, pyproject.toml
and README.md into a temporary directory, replaces the one occurrence of
the old text in the file, and runs pytest on the test ids there.  Failing
tests catch the mutant; passing tests let it survive.  An old text that
does not occur exactly once makes the mutant stale: the code moved and
the entry needs updating.  Prints one line per mutant, then every
survivor and stale entry, and exits 1 if there is any.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


GEN = "generators.py"
T_GEN = "tests/test_generators.py::"
SPARSE_TESTS = (T_GEN + "test_sigma_sparse_matches_divisor_pairs",
                T_GEN + "test_sigma_sparse_near_1e14")
BOUND_TESTS = (T_GEN + "test_abundancy_bound_exceeds_abundancy",)
BOUND_BITS_TESTS = (T_GEN + "test_abundancy_bound_bits_match_per_prime_loop",
                    T_GEN + "test_abundancy_bound_bits_match_with_short_hit_block")
RECORD_TESTS = (T_GEN + "test_superabundant_prefix",
                T_GEN + "test_superabundant_record_values",
                T_GEN + "test_superabundant_exponents_do_not_increase",
                "tests/test_acceptance.py::"
                "test_criterion_3_abundance_records_match_brute_force")
ORACLE_TESTS = (T_GEN + "test_verify_range_segment_sizes_agree",
                T_GEN + "test_verify_range_matches_oracle_near_1e9")
STRENGTH_TESTS = (T_GEN + "test_screens_leave_almost_nothing",)
MEMORY_TESTS = (T_GEN + "test_verify_range_memory_stays_small",)
T_PRIMES = "tests/test_primes.py::"
GAP_TESTS = (T_PRIMES + "test_gap_window_matches_nextprime",
             T_PRIMES + "test_gap_window_sieve_sees_prime_gaps")
GAP_END_TESTS = (T_PRIMES + "test_integer_window_end_is_below_interval_end",)
GAP_FALLBACK_TESTS = (T_PRIMES + "test_threshold_takes_the_interval_fallback",)
T_FAC = "tests/test_factored.py::"
SIGMA_RATIO_TESTS = (T_FAC + "test_sigma_ratio_on_both_sides_of_the_exact_cut",
                     T_FAC + "test_rho_beyond_the_exact_cut")
G_RATIO_TESTS = (T_FAC + "test_g_ratio_edits_contain_oracle",
                 "tests/test_golden.py")
SIGMA_PART_TESTS = (T_FAC + "test_integer_sigma_part_matches_the_fraction_path",)
GAP_TABLE_TESTS = (T_PRIMES + "test_gap_at_1e15_needs_little_memory",
                   T_PRIMES + "test_gap_tables_past_the_shared_limit_are_the_calls_own")
EDIT_TESTS = ("tests/test_audit.py::test_run_edits_match_exponent_list_path",)
WALK_TESTS = ("tests/test_audit.py::test_carried_log_n_meets_a_fresh_sum",
              "tests/test_audit.py::test_carried_log_n_stays_narrow_on_a_long_walk")
T_UNKNOWN = "tests/test_audit.py::TestUnknownWitnesses::"
SCAN_TESTS = ("tests/test_audit.py::test_window_indices_match_linear_scan",)
L_SCAN_TESTS = SCAN_TESTS + ("tests/test_audit.py::test_l_violations_match_a_linear_scan",)
B2_TESTS = ("tests/test_audit.py::test_shape_b2_corners_match_all_pairs",)
T_MEMO = "tests/test_memo.py::"
T_IV = "tests/test_intervals.py::"
KERNEL_TESTS = (T_IV + "test_binary_ops_equal_libmpi_bit_for_bit",)
UNARY_TESTS = (T_IV + "test_unary_ops_equal_libmpi_bit_for_bit",)
STEP_TESTS = ("tests/test_audit.py::test_one_log_per_step_and_per_sum",
              "tests/test_audit.py::test_trace_ratios_match_each_state_on_its_own")
CACHE_TESTS = (T_MEMO + "test_process_caches_answer_only_their_precision",)
B6_TESTS = ("tests/test_audit.py::test_density_b6_matches_exact_product",)
PREFIX_TESTS = (T_FAC + "test_prefix_log_n_meets_the_oracle_and_the_cell_walk",
                T_FAC + "test_prefix_log_n_bits_do_not_depend_on_history")
JSON_TESTS = (T_FAC + "test_json_refusals_name_field_and_reason",)
RUN_LIST_TESTS = (T_FAC + "test_constructor_refuses_all_but_one_run_list",
                  T_FAC + "test_runs_constructor_rejects_non_decreasing")
B1_TESTS = ("tests/test_audit.py::TestIndividualChecks::test_shape_b1",
            "tests/test_audit.py::TestIndividualChecks::"
            "test_shape_checks_read_the_one_run_list")
CA_TESTS = (T_GEN + "test_exponent_of_2_past_the_rounding_of_f",
            T_GEN + "test_exponent_inside_the_bracket_is_reported")
T_BOUNDS = "tests/test_audit.py::TestWindowBounds::"
USAGE_TESTS = ("tests/test_cli.py::TestUsage::test_refused_argument_is_usage_error",)

MUTANTS = [
    # the abundancy bound of verify_range and the sparse exact sigma
    Mutant("bound: cofactor factor dropped", GEN,
           "(1 + 1 / root) * (1 + 1e-9)", "1 + 1e-9", BOUND_TESTS),
    Mutant("bound: p/(p-1) replaced by (p+1)/p", GEN,
           "ratios = chunk / (chunk - 1)", "ratios = (chunk + 1) / chunk",
           BOUND_TESTS + ORACLE_TESTS),
    Mutant("bound: p/(p-1) replaced by (p+1)/p for p <= 13", GEN,
           "*= p / (p - 1)", "*= (p + 1) / p", BOUND_TESTS + ORACLE_TESTS),
    Mutant("bound: 17 and 19, the primes after the wheel, skipped", GEN,
           "chunk[chunk > _WHEEL[-1]]", "chunk[chunk > 20]",
           BOUND_TESTS + ORACLE_TESTS),
    Mutant("bound: wheel tile's last partial period left unset", GEN,
           "bound[reps * w :] = bound[: size - reps * w]", "pass",
           BOUND_BITS_TESTS),
    Mutant("bound: scatter's hit count per prime rounded down", GEN,
           "(size - first + p - 1) // p", "(size - first) // p",
           BOUND_BITS_TESTS),
    Mutant("bound: scatter runs overlap by one prime", GEN,
           "zip([0] + cuts, cuts + [p.size])",
           "zip([0] + cuts, [c + 1 for c in cuts] + [p.size])",
           BOUND_BITS_TESTS),
    Mutant("bound: scatter index loses its first offset", GEN,
           "            idx += np.repeat(first[a:b], h)\n", "", BOUND_BITS_TESTS),
    Mutant("segment: c taken at the segment end", GEN,
           "iv_log(iv_log(iv_from_int(b), prec), prec)",
           "iv_log(iv_log(iv_from_int(end - 1), prec), prec)", ORACLE_TESTS),
    Mutant("segment: survivor offsets not shifted to the segment", GEN,
           "ns = b + off", "ns = lo + off", ORACLE_TESTS),
    Mutant("segment: spans two doublings", GEN,
           "min(b + _segment_length(b), 2 * b, hi + 1)",
           "min(b + _segment_length(b), hi + 1)",
           STRENGTH_TESTS),
    Mutant("segment: never shorter than 2^20", GEN,
           "max(_SEGMENT >> 1, 2 * math.isqrt(b))",
           "max(_SEGMENT, 2 * math.isqrt(b))", MEMORY_TESTS),
    Mutant("bound: scatter in one run of primes", GEN,
           "_HIT_BLOCK = 1 << 16", "_HIT_BLOCK = 1 << 40", MEMORY_TESTS),
    Mutant("pass 2: tests the bound instead of sigma", GEN,
           "_abundancy(sig, ns) >= c", "bound[off] >= c", STRENGTH_TESTS),
    Mutant("sparse sigma: cofactor missing", GEN,
           "sigma *= np.where(cofactor > 1, cofactor + 1, 1)", "sigma *= 1",
           SPARSE_TESTS),
    Mutant("sparse sigma: valuation stops at p^1", GEN,
           "more = more[n[more] // power[more] % p[more] == 0]",
           "more = more[:0]", SPARSE_TESTS),
    Mutant("sigma range: int64 cap removed", GEN,
           'if hi > _MAX_N:\n        raise DomainError(f"sigma range',
           'if False:\n        raise DomainError(f"sigma range',
           (T_GEN + "test_sigma_range_cap",)),
    Mutant("sigma range: root taken one below the square root", GEN,
           "dtype=np.int64), math.isqrt(hi))", "dtype=np.int64), math.isqrt(hi) - 1)",
           (T_GEN + "test_sigma_range_matches_divisor_pairs",)),
    # the abundancy records over non-increasing exponents
    Mutant("records: exponents must strictly decrease", GEN,
           "while e <= top and m <= limit:", "while e < top and m <= limit:",
           RECORD_TESTS),
    Mutant("records: a tie taken as a record", GEN,
           "if s * best_den > best_num * n:", "if s * best_den >= best_num * n:",
           RECORD_TESTS),
    Mutant("records: sigma(p^e) recurrence off by one", GEN,
           "term * p + 1", "term * p + 2", RECORD_TESTS),
    # the prime-gap window: next-prime block search, integer end, fallback
    Mutant("gap: fancy store removed", "primes.py",
           "flags[big[big < _GAP_BLOCK]] = False", "pass", GAP_TESTS),
    Mutant("gap: small-prime split removed", "primes.py",
           "small = int(np.searchsorted(base, _GAP_BLOCK))", "small = 0",
           GAP_TESTS),
    Mutant("gap: search stops after the first block without a prime",
           "primes.py", "    while True:\n        root = isqrt(",
           "    for _ in range(1):\n        root = isqrt(", GAP_TESTS),
    Mutant("gap: a call's own table kept as the shared one", "primes.py",
           "        return PrimeTable.build(root + _GAP_BLOCK)\n",
           "        _GAP_BASE_TABLE = PrimeTable.build(root + _GAP_BLOCK)\n"
           "        return _GAP_BASE_TABLE\n", GAP_TABLE_TESTS),
    Mutant("integer bound: ln 2 rounded down to 0.693147", "primes.py",
           "_LN2_UP = 693148", "_LN2_UP = 693147", GAP_END_TESTS),
    Mutant("gap: interval fallback dropped", "primes.py",
           "return p <= _integer_window_end(x) or p <= dusart_window_end(x, prec)",
           "return p <= _integer_window_end(x)", GAP_FALLBACK_TESTS),
    # the sigma-power ratio and the edit map of normalize steps
    Mutant("sigma ratio: p^a and p^b swapped in the exact branch", "factored.py",
           "(p ** (a + 1) - 1) * p**b, (p ** (b + 1) - 1) * p**a",
           "(p ** (a + 1) - 1) * p**a, (p ** (b + 1) - 1) * p**b",
           SIGMA_RATIO_TESTS + SIGMA_PART_TESTS + G_RATIO_TESTS),
    Mutant("g ratio: the integer sigma part inverted", "factored.py",
           "num, den = num * f[0], den * f[1]", "num, den = num * f[1], den * f[0]",
           SIGMA_PART_TESTS),
    Mutant("sigma ratio: exponent-0 side taken as p", "factored.py",
           "return iv_from_int(p - 1)", "return iv_from_int(p)",
           SIGMA_RATIO_TESTS),
    Mutant("g ratio: log log quotient inverted", "factored.py",
           "iv_div(loglog_after, loglog, prec)", "iv_div(loglog, loglog_after, prec)",
           G_RATIO_TESTS),
    Mutant("g ratio: swap adds log p_s before it subtracts log p_r", "factored.py",
           "sorted(edits.items(), reverse=True)", "sorted(edits.items())",
           ("tests/test_golden.py",)),
    Mutant("edit map: the swap's trailing-zero edit of p_r dropped", "audit.py",
           '"swap", {s: 1, ctx.r: -1}', '"swap", {s: 1}',
           ("tests/test_audit.py::TestNormalize::test_swap_steps_on_primorial",
            "tests/test_golden.py")),
    Mutant("edit map: an interior hole let through", "audit.py",
           "if new_e == 0 and i < r:", "if False:", EDIT_TESTS),
    Mutant("edit map: r kept through the strip of trailing zeros", "audit.py",
           "        r -= runs.pop().count\n", "        runs.pop()\n",
           EDIT_TESTS + STEP_TESTS),
    Mutant("edit map: a split skips the merge with the run before", "audit.py",
           "if i == start and lo and runs[lo - 1].exponent == new_e:", "if False:",
           EDIT_TESTS),
    Mutant("edit map: a split skips the merge with the run after", "audit.py",
           "if i == end and hi < len(runs) and runs[hi].exponent == new_e:",
           "if False:", EDIT_TESTS),
    Mutant("g ratio: swap into a hole refused again", "factored.py",
           'raise DomainError(f"swap index must satisfy 1 <= s < r = {r}")\n',
           'raise DomainError(f"swap index must satisfy 1 <= s < r = {r}")\n'
           '    if c.a(s) < 1:\n'
           '        raise DomainError(f"p_{s} does not divide the candidate")\n',
           G_RATIO_TESTS),
    # the walk state of normalize: runs, a carried log n and its log log n
    Mutant("walk: the next state reuses the old log n", "audit.py",
           "lg if carried else None", "ctx.log_n if carried else None",
           WALK_TESTS),
    Mutant("walk: _log_after's sign flipped", "factored.py",
           "if delta > 0 else", "if delta < 0 else", WALK_TESTS),
    Mutant("walk: the re-sum dropped", "audit.py",
           "carried = step % _RESUM_STEPS != 0", "carried = True", WALK_TESTS),
    Mutant("walk: the ratio's log log n' read from the current state", "audit.py",
           "            loglog_after = _loglog_from(lg, prec)\n",
           "            loglog_after = ctx.loglog\n", STEP_TESTS),
    Mutant("walk: p_r handed to the step as p_s", "audit.py",
           "primes = {s: t.nth_prime(s), ctx.r: ctx.p_r}",
           "primes = {s: ctx.p_r, ctx.r: ctx.p_r}", ("tests/test_golden.py",)),
    Mutant("walk: the next state forms its log log n again", "audit.py",
           "                nxt.loglog = loglog_after\n", "                pass\n",
           STEP_TESTS),
    # the run scan of the window checks and normalize
    Mutant("scan: suffix bisect replaced by the run end", "audit.py",
           "return start + bisect.bisect_left(",
           "return end + 0 * bisect.bisect_left(", SCAN_TESTS),
    Mutant("L scan: boundary searched with side='left'", "audit.py",
           'searchsorted(root, side="right")', 'searchsorted(root, side="left")',
           L_SCAN_TESTS),
    Mutant("L scan: root boundary one too high", "audit.py",
           'searchsorted(root, side="right")', 'searchsorted(root + 1, side="right")',
           L_SCAN_TESTS),
    Mutant("L scan: root boundary one too low", "audit.py",
           'searchsorted(root, side="right")', 'searchsorted(root - 1, side="right")',
           L_SCAN_TESTS),
    Mutant("L scan: the least violation read at the run end", "audit.py",
           "if not last:\n            return start",
           "if not last:\n            return end", L_SCAN_TESTS),
    Mutant("scan: lo ignored", "audit.py",
           "start = max(start, lo)", "start = max(start, 1)",
           ("tests/test_audit.py::TestIndividualChecks::"
            "test_shape_b4_reads_no_index_below_2",)),
    Mutant("L scan: lo ignored", "audit.py",
           "start, k = max(start, lo), e + 1", "start, k = start, e + 1",
           L_SCAN_TESTS),
    # the corner scan of shape B2
    Mutant("B2: a zero-exponent run scanned", "audit.py",
           "[bounds for bounds in ctx.c.run_bounds() if bounds[2]]",
           "list(ctx.c.run_bounds())", B2_TESTS),
    Mutant("B2: the low corner of two runs skipped", "audit.py",
           "corners = [(t_i, s_j), (s_i, t_j)]", "corners = [(t_i, s_j)]",
           B2_TESTS),
    # the check runner: coverage, indeterminacy and the comparison verdict
    Mutant("runner: two_squares_F taken as table-free", "audit.py",
           '"exponents_E"})', '"exponents_E", "two_squares_F"})',
           (T_UNKNOWN + "test_uncovered_candidate",)),
    Mutant("runner: the Unknown drops the exception's witness", "audit.py",
           '{"reason": str(e), **e.witness}', '{"reason": str(e)}',
           (T_UNKNOWN + "test_upper_window_bracket",
            T_UNKNOWN + "test_power_comparisons_of_b4_and_d4")),
    Mutant("decide: an overlapping comparison reads as Fail", "audit.py",
           "cmp is not side and cmp is not Comparison.OVERLAPPING",
           "cmp is not side", (T_UNKNOWN + "test_overlapping_comparison",)),
    # the interval kernel: direct endpoint roundings where both lower ends
    # are positive, libmpi's case analysis elsewhere
    Mutant("kernel: iv_add's upper end rounded down", "intervals.py",
           "mpf_add(a_hi, b_hi, prec, _ROUND_UP)",
           "mpf_add(a_hi, b_hi, prec, _ROUND_DOWN)", KERNEL_TESTS),
    Mutant("kernel: iv_sub's upper end rounded down", "intervals.py",
           "mpf_sub(a_hi, b_lo, prec, _ROUND_UP)",
           "mpf_sub(a_hi, b_lo, prec, _ROUND_DOWN)", KERNEL_TESTS),
    Mutant("kernel: iv_mul's positive-case guard dropped", "intervals.py",
           "if a_lo[0] or b_lo[0] or not (a_lo[1] and b_lo[1]):", "if False:",
           KERNEL_TESTS),
    Mutant("kernel: iv_div's positive-numerator guard dropped", "intervals.py",
           "elif not a_lo[0] and a_lo[1]:", "elif True:", KERNEL_TESTS),
    Mutant("kernel: iv_div's lower end divided by the wrong endpoint",
           "intervals.py", "mpf_div(a_lo, b_hi, prec, _ROUND_DOWN)",
           "mpf_div(a_lo, b_lo, prec, _ROUND_DOWN)", KERNEL_TESTS),
    Mutant("kernel: a zero-touching divisor let through", "intervals.py",
           "if not (b_hi[0] and b_hi[1]):  # b_hi >= 0", "if False:",
           KERNEL_TESTS),
    Mutant("kernel: iv_log's upper end rounded down", "intervals.py",
           "mpf_log(hi, prec, _ROUND_UP)", "mpf_log(hi, prec, _ROUND_DOWN)",
           UNARY_TESTS),
    Mutant("cmp: same-exponent mantissa order reversed", "intervals.py",
           "return -1 if (sman > tman) == ssign else 1",
           "return 1 if (sman > tman) == ssign else -1",
           (T_IV + "test_cmp_agrees_with_mpf_cmp",)),
    # the process caches of rational logs and top-prime bounds, and the
    # table memo of exponent-scaled cell logs
    Mutant("rational log: formed at the default precision", "intervals.py",
           "return iv_log(x, prec)",
           "return iv_log(x, DEFAULT_PRECISION_BITS)", CACHE_TESTS),
    Mutant("top-prime bounds: D3 lower bound as exp(+1/log p_r)", "audit.py",
           "d3_lower=iv_exp(iv_neg(inv), prec)", "d3_lower=iv_exp(inv, prec)",
           CACHE_TESTS),
    Mutant("top-prime bounds: s-window bounds swapped", "audit.py",
           "s_lower=iv_mul(cst.s_window_lower_iv, root, prec),\n"
           "        s_upper=iv_mul(cst.s_window_upper_iv, root, prec),",
           "s_lower=iv_mul(cst.s_window_upper_iv, root, prec),\n"
           "        s_upper=iv_mul(cst.s_window_lower_iv, root, prec),",
           CACHE_TESTS),
    Mutant("cell memo: exponent-scaled log keyed without the exponent",
           "factored.py", '("elog", i, j, e, prec)', '("elog", i, j, prec)',
           (T_MEMO + "test_exponent_scaled_cell_logs_answer_only_their_key",)),
    # the prefix of cell logs behind log n's runs over whole cells
    Mutant("prefix: first whole cell off by one", "factored.py",
           "lo, hi = (start + _CHUNK - 2) // _CHUNK, end // _CHUNK",
           "lo, hi = (start + _CHUNK - 2) // _CHUNK - 1, end // _CHUNK",
           PREFIX_TESTS),
    Mutant("prefix: Lambda_lo subtraction dropped", "factored.py",
           "span = iv_sub(lam[hi], lam[lo], prec)", "span = lam[hi]",
           PREFIX_TESTS),
    Mutant("prefix: summed at the working precision", "factored.py",
           "lam.append(iv_add(lam[-1], cell, prec + 32))",
           "lam.append(iv_add(lam[-1], cell, prec))",
           (T_FAC + "test_prefix_span_is_narrower_than_its_cell_walk",)),
    Mutant("prefix: keyed without the precision", "factored.py",
           '("prefix", prec)', '("prefix",)', PREFIX_TESTS),
    Mutant("prefix: exponent factor dropped on the indexed span", "factored.py",
           "span if e == 1 else iv_mul(e, span, prec)", "span", PREFIX_TESTS),
    Mutant("prefix: used for a run with one whole cell", "factored.py",
           "if e and hi - lo < 2:", "if e and hi - lo < 1:", PREFIX_TESTS),
    # B6 as the density product, folded one cell piece at a time
    Mutant("B6: tail factor dropped", "audit.py",
           "low = iv_mul(product, Fraction(q - 2, q - 1), prec)", "low = product",
           B6_TESTS),
    Mutant("B6: fail tested against 1 - eps's upper end", "audit.py",
           "if iv_compare(product, bound) is Comparison.CERTAINLY_LESS:",
           "if iv_compare(product, bound.hi) is Comparison.CERTAINLY_LESS:",
           B6_TESTS),
    Mutant("B6: zero-exponent piece folded", "factored.py",
           "if e\n            for i, j in _cut(start, end))",
           "if True\n            for i, j in _cut(start, end))", B6_TESTS),
    Mutant("B6: piece key without prec", "factored.py",
           '("b6", i, j, e, prec)', '("b6", i, j, e)',
           (T_MEMO + "test_entries_answer_only_their_precision",)),
    Mutant("B6: density numerator p^(e+1) - 1 taken as p^e - 1", "factored.py",
           "_prod([p ** (e + 1) - 1 for p in primes])",
           "_prod([p ** e - 1 for p in primes])",
           B6_TESTS + (T_FAC + "test_rho_matches_sympy",)),
    Mutant("n/phi: p - 1 taken as p + 1", "factored.py",
           "_prod([p - 1 for p in primes])", "_prod([p + 1 for p in primes])",
           (T_FAC + "test_n_over_phi_matches_sympy",
            T_FAC + "test_aggregates_across_cell_edges")),
    # the refusals of CandidateFactorization.from_json, one per group
    Mutant("json: a non-object document let through", "factored.py",
           "if not isinstance(obj, dict):", "if False:", JSON_TESTS),
    Mutant("json: an empty runs array let through", "factored.py",
           "if not isinstance(runs, list) or not runs:",
           "if not isinstance(runs, list):", JSON_TESTS),
    Mutant("json: a non-object run let through", "factored.py",
           "if not isinstance(item, dict):", "if False:", JSON_TESTS),
    Mutant("json: a bool run field taken as an integer", "factored.py",
           "if not isinstance(v, int) or isinstance(v, bool):",
           "if not isinstance(v, int):", JSON_TESTS),
    Mutant("json: a run count of 0 let through", "factored.py",
           'if item["count"] < 1:', 'if item["count"] < 0:', JSON_TESTS),
    Mutant("json: a negative exponent let through", "factored.py",
           "if a < 0:\n                    raise CandidateFormatError",
           "if False:\n                    raise CandidateFormatError", JSON_TESTS),
    Mutant("json: all-zero exponents let through", "factored.py",
           "if not any(exps):", "if False:", JSON_TESTS),
    # one run list per candidate, and B1 read from it
    Mutant("run list: equal-neighbour refusal dropped", "factored.py",
           "if k and self.runs[k - 1].exponent == run.exponent:", "if False:",
           RUN_LIST_TESTS),
    Mutant("run list: a negative exponent let through", "factored.py",
           'if run.exponent < 0:\n                raise DomainError(f"run {k} has',
           'if False:\n                raise DomainError(f"run {k} has',
           RUN_LIST_TESTS),
    Mutant("run list: a trailing zero run let through", "factored.py",
           "if self.runs[-1].exponent == 0:", "if False:", RUN_LIST_TESTS),
    Mutant("run list: from_runs accepts a non-canonical list", "factored.py",
           "if not c.canonical:", "if False:", RUN_LIST_TESTS),
    Mutant("B1 allows a rise of one", "audit.py",
           "if prev_e is not None and e > prev_e:",
           "if prev_e is not None and e > prev_e + 1:", B1_TESTS),
    # the width budgets of the explicit exponent list
    Mutant("budget: from_exponents takes any length", "factored.py",
           "if len(exps) > _EXPLICIT_LIMIT:", "if False:",
           (T_FAC + "test_explicit_forms_have_a_width_budget",)),
    Mutant("budget: exponents_list expands any width", "factored.py",
           "if self.r > _EXPLICIT_LIMIT:", "if False:",
           (T_FAC + "test_explicit_forms_have_a_width_budget",)),
    # the CA exponent: power_below first, the exact bracket of log F after
    Mutant("CA bracket bounds swapped", GEN,
           "Fraction(p - 1, q - 1), work) is Comparison.CERTAINLY_LESS",
           "Fraction(p - 1, q - p), work) is Comparison.CERTAINLY_LESS",
           CA_TESTS),
    Mutant("CA bracket dropped", GEN,
           "below = escalate(bracket, prec)", "pass", CA_TESTS),
    Mutant("CA messages: epsilon formatted by str()", GEN,
           'return text if eps.denominator == 1 else f"{text}/{_int_text(eps.denominator)}"',
           "return str(eps)",
           (T_GEN + "test_epsilon_past_4300_digits_is_named_by_its_size",)),
    Mutant("ca_sweep: a count of 0 let through", GEN,
           "    if count < 1:", "    if count < 0:",
           (T_GEN + "test_ca_sweep_needs_a_positive_count",)),
    # the refusals of U, L and the report lookup
    Mutant("compute_l: x = 1 let through", "audit.py",
           "if x < 2 or p < 2:", "if x < 1 or p < 2:",
           (T_BOUNDS + "test_compute_l_refuses_x_or_p_below_two",)),
    Mutant("U: log n at most 2 let through", "audit.py",
           "if iv_compare(lg, 2) is not Comparison.CERTAINLY_GREATER:", "if False:",
           (T_BOUNDS + "test_upper_bound_refuses_a_log_too_small",)),
    Mutant("U: p at or above log n let through", "audit.py",
           'if iv_compare(p, lg) is not Comparison.CERTAINLY_LESS:\n        raise',
           'if False:\n        raise',
           (T_BOUNDS + "test_upper_bound_refuses_a_log_too_small",)),
    Mutant("verdict_for: an unknown id read as None", "audit.py",
           "raise KeyError(check_id)", "return None",
           ("tests/test_audit.py::TestFullAudit::"
            "test_verdict_for_reads_only_the_ledger",)),
    # the refusals of CLI arguments, one per parser
    Mutant("cli: a fractional integer truncated", "cli.py",
           "if d != d.to_integral_value():", "if False:", USAGE_TESTS),
    Mutant("cli: a count of 0 let through", "cli.py",
           "    if v < 1:", "    if v < 0:", USAGE_TESTS),
    Mutant("cli: an infinite epsilon let through", "cli.py",
           "if not isinstance(exp, int):  # infinity or NaN",
           "if False:  # infinity or NaN", USAGE_TESTS),
    Mutant("cli: a zero denominator let through", "cli.py",
           "except (ValueError, ZeroDivisionError):", "except ValueError:",
           USAGE_TESTS),
    # the refusals of the interval layer
    Mutant("interval: a str operand let through", "intervals.py",
           '    raise TypeError(f"cannot treat {type(x).__name__} as an interval")',
           "    return _endpoints(Fraction(x), prec)",
           (T_IV + "test_str_operand_refused",)),
    Mutant("interval: a too fine endpoint serialized", "intervals.py",
           "if k > _MAX_SERIAL_FRACTION_BITS:", "if False:",
           (T_IV + "test_json_endpoint_finer_than_the_serial_limit_is_refused",)),
    Mutant("interval: a missing endpoint let through", "intervals.py",
           "except (TypeError, KeyError) as e:", "except TypeError as e:",
           (T_IV + "test_json_missing_endpoint_is_refused",)),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def run_mutant(m: Mutant) -> str:
    """'caught', 'survived' or 'stale'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        path = tmp / "src" / "robinaudit" / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return "stale"
        path.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        env.pop("ROBIN_PRECISION_BITS", None)
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *m.tests]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "caught"  # a hang is a failure the tests would show
        # 0: every test passed, 1: some failed; anything else (a test id
        # that no longer exists, a collection error) is no verdict
        return {0: "survived", 1: "caught"}.get(proc.returncode, "stale")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-k", default="", help="run only mutants whose name contains this")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = ap.parse_args(argv)
    chosen = [m for m in MUTANTS if args.k in m.name]
    if args.list:
        for m in chosen:
            print(f"{m.name}  [{m.file}]")
        return 0
    bad = []
    for m in chosen:
        status = run_mutant(m)
        print(f"{status:9s} {m.name}", flush=True)
        if status != "caught":
            bad.append((status, m.name))
    print(f"{len(chosen) - len(bad)} of {len(chosen)} mutants caught")
    for status, name in bad:
        print(f"{status.upper()}: {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
