"""Regenerate the stored output references in bench/refs/.

    python3 bench/make_refs.py

Runs one full-size pass of each workload at the default seed (0) and
stores every operation's output under its input key.  The superabundant
record list is first cross-checked against an independent divisor-sum
sieve and sympy.divisor_sigma (sympy is a test dependency).  Refuses to
write anything if an invariant fails.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import numpy as np

from run import BENCH, import_package
from workloads import SIZES, WORKLOADS, check_pass

DEFAULT_SEED = 0
SA_LIMIT = 10**6


def independent_sa_records(limit: int) -> list[list[int]]:
    """Abundancy records from a plain divisor-sum sieve (not sigma_range)."""
    sigma = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sigma[d::d] += d
    records, best = [], Fraction(0)
    for n in range(1, limit + 1):
        if Fraction(int(sigma[n]), n) > best:
            best = Fraction(int(sigma[n]), n)
            records.append([n, int(sigma[n])])
    return records


def main() -> int:
    import sympy

    ra = import_package()
    sa = [[r.n, r.sigma] for r in ra.superabundant_up_to(SA_LIMIT)]
    if sa != independent_sa_records(SA_LIMIT):
        sys.exit("make_refs: SA records disagree with the divisor-sum sieve")
    bad = [n for n, s in sa if int(sympy.divisor_sigma(n)) != s]
    if bad:
        sys.exit(f"make_refs: sympy.divisor_sigma disagrees at {bad}")
    ca = [c.exponents_list() for c in ra.ca_sweep(20, ra.PrimeTable.build(10**6))]
    refs = {"sa:1000000": sa, "ca_sweep:20": ca}

    size = SIZES["full"]
    for name, w in WORKLOADS.items():
        limit = w.table_limit(size)
        table = ra.PrimeTable.build(limit) if limit else None
        ops = w.run_pass(ra, table, w.inputs(DEFAULT_SEED, size, refs))
        check_pass(w, ops, refs)
        failed = [o for o in ops if o.failed]
        if failed:
            sys.exit(f"make_refs: {name}: {failed[0].key[:80]}: "
                     f"{failed[0].error or failed[0].problems}")
        out = {o.key: o.summary for o in ops}
        path = BENCH / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"{path.relative_to(BENCH.parent)}: {len(out)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
