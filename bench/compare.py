"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records bench/run.py writes (``--out``).
For every workload and metric it prints each side's median and quartiles,
the pairs the change won and a verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side), at least 10 pairs were run, and the medians
              differ by more than the parent's quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (for a metric without a bound: it loses 9
              of every 10 pairs by more than the parent's quartile spread);
  unresolved  the parent's own quartile spread is wider than the bound and
              not every change run beats every parent run, or a gain rests
              on fewer than 10 pairs or comes with more failed operations;
  unchanged   otherwise.

Bounds come from BENCHMARK.json.  The workload metrics printed before the
result line (rates, normalize_s, latency percentiles) are parts of one
pass, so they take the bound of ``wall_s``; a rate (unit 1/s) is better
higher, every other one lower.  Runs are paired by seed when both sides
have the same seeds, otherwise in the order they were made.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """(workload, trace) -> list of run records, oldest first."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if "workload" in rec and "metrics" in rec:
            runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pair(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    ps = {r["seed"]: r for r in parent}
    cs = {r["seed"]: r for r in change}
    if len(ps) == len(parent) and len(cs) == len(change) and ps.keys() == cs.keys():
        return [(ps[s], cs[s]) for s in sorted(ps)]
    return list(zip(parent, change))


def verdict(pairs: list[tuple[float, float]], higher: bool, bound,
            more_failures: bool) -> tuple[str, int]:
    p, c = [a for a, _ in pairs], [b for _, b in pairs]
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    q1, mp, q3 = quartiles(p)
    mc = statistics.median(c)
    gain = sign * (mc - mp)
    spread = q3 - q1
    n = len(pairs)
    if wins >= 0.9 * n and gain > spread:
        return ("improved" if n >= 10 and not more_failures else "unresolved"), wins
    if bound is None:
        if n >= 10 and losses >= 0.9 * n and -gain > spread:
            return "worse", wins
        return "unchanged", wins
    if mp and -gain / abs(mp) > bound:
        return "worse", wins
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    if mp and spread / abs(mp) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    wall_bound = specs["wall_s"]["bound"]
    parent, change = load(argv[0]), load(argv[1])

    backends = {r["env"]["mpmath_backend"] for side in (parent, change)
                for recs in side.values() for r in recs}
    if len(backends) > 1:
        print(f"refusing to compare runs made with mpmath backends {sorted(backends)}",
              file=sys.stderr)
        return 2

    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        pairs = pair(parent[key], change[key])
        print(f"\n{workload} ({'traced' if trace else 'untraced'}), {len(pairs)} pairs")
        failed = {}
        for side, recs in (("parent", parent[key]), ("change", change[key])):
            failed[side] = sum(r["failed"] for r in recs)
            attempted = sum(r["attempted"] for r in recs)
            print(f"  {side}: {failed[side]} of {attempted} operations failed")
        names = list(pairs[0][0]["metrics"])
        if not trace:
            names += list(pairs[0][0]["details"])
        print(f"  {'metric':34s} {'unit':6s} {'parent median [q1, q3]':32s} "
              f"{'change median [q1, q3]':32s} {'won':>7s}  verdict")
        for name in names:
            def values(rec):
                m = rec["metrics"].get(name) or rec["details"].get(name)
                return m["value"], m["unit"]

            pv = [values(a)[0] for a, _ in pairs]
            cv = [values(b)[0] for _, b in pairs]
            unit = values(pairs[0][0])[1]
            if name in specs:
                higher = specs[name]["better"] == "higher"
                bound = specs[name].get("bound")
            else:
                higher, bound = unit == "1/s", wall_bound
            v, wins = verdict(list(zip(pv, cv)), higher, bound,
                              failed["change"] > failed["parent"])
            cells = []
            for xs in (pv, cv):
                q1, med, q3 = quartiles(xs)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"  {name:34s} {unit:6s} {cells[0]:32s} {cells[1]:32s} "
                  f"{wins:>3d}/{len(pairs):<3d}  {v}")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"\nonly on one side: {missing}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
