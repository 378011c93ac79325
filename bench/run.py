"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload range_sweep --seed 1 --seconds 30 --trace 0

The workload repeats its fixed list of operations (a pass) in a closed
loop, single process and single thread, until ``--seconds`` have passed;
the next operation starts when the previous one returns.  Every output is
checked.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it give the environment, the workload's own metrics and
the failed and unknown ratios with their bases.  A full record of the run
is written to ``bench/results/`` (or ``--out``) for bench/compare.py.

Times are reported in reference seconds (see speed.py): each operation's
time is scaled by the machine speed sampled in and around it, because
neighbours on a shared host slow stretches of a run by 20-50 %.  Every
pass repeats the same operations on the same inputs, and each operation
counts at its median over the passes of the run: ``wall_s`` is the sum of
those medians for one pass.  Raw times are kept in the run record.

With ``--trace 1``, untraced and traced passes alternate.  Per-layer
values are medians over traced passes, layer times in reference seconds;
``trace.overhead_s`` is the traced pass time minus the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH))
from speed import MIN_SAMPLES, PERIOD_S, SpeedSampler  # noqa: E402
from workloads import GAP_LO, SIZES, WORKLOADS, Op, check_pass, timed, typical  # noqa: E402


def import_package():
    """Import robinaudit from this checkout's src/, never from elsewhere."""
    if not (SRC / "robinaudit" / "__init__.py").is_file():
        sys.exit(f"bench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import robinaudit
    import robinaudit.cli  # noqa: F401  (the corpus calls cli.main)

    if Path(robinaudit.__file__).resolve().parent != SRC / "robinaudit":
        sys.exit(f"bench: robinaudit imported from {robinaudit.__file__}")
    return robinaudit


def _import_seconds() -> float:
    """Time of ``import robinaudit`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import robinaudit; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


def environment(ra) -> dict:
    """Results from different mpmath backends are not comparable: gmpy2
    changes big-int timings several times over."""
    import mpmath
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def load_refs() -> dict:
    refs = {}
    for path in sorted((BENCH / "refs").glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            refs.update(json.load(fh))
    return refs


def setup(ra, w, seed: int, size: dict, refs: dict, sampler: SpeedSampler):
    """Set up SETUP_REPEATS times: import, table build, input generation.

    Returns the median set-up time and table-build time in reference
    seconds, the median raw set-up time, and the table and inputs of the
    last repetition."""
    spans, raw, builds = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with sampler.paused():
            t_import = _import_seconds()
        t1 = time.perf_counter()
        limit = w.table_limit(size)
        table = ra.PrimeTable.build(limit) if limit else None
        t2 = time.perf_counter()
        inputs = w.inputs(seed, size, refs)
        if w.name == "range_sweep":
            ra.dusart_gap_holds(GAP_LO)  # builds its sieving primes once
        t3 = time.perf_counter()
        spans += [(t0, t1), (t1, t2), (t2, t3)]
        raw.append((t_import, t2 - t1, t3 - t2))
        time.sleep(MIN_SAMPLES * PERIOD_S)  # samples between repetitions
    scaled = sampler.scale(spans)
    totals = []
    for k, (t_import, t_build, t_inputs) in enumerate(raw):
        (_, s_import), (in_build, s_build), (in_inputs, s_inputs) = scaled[3 * k:3 * k + 3]
        builds.append((t_build - in_build) * s_build)
        totals.append(t_import * s_import + builds[-1] + (t_inputs - in_inputs) * s_inputs)
    return (statistics.median(totals), statistics.median(builds),
            statistics.median(sum(r) for r in raw), table, inputs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, w, ra, table, inputs, refs, tracer):
    """The closed loop: passes until --seconds have passed."""
    min_passes = 4 if tracer else 3
    next_id = [0]

    def run_op(op: Op, fn) -> Op:
        if tracer:
            tracer.op_id = next_id[0]
        next_id[0] += 1
        return timed(op, fn)

    passes: list[list[Op]] = []
    walls: list[float] = []
    traced: list[bool] = []
    first_ids: list[int] = []
    begin = time.perf_counter()
    # Start a pass only if it is expected to end within --seconds, after a
    # minimum that gives every operation several samples (a traced run
    # alternates untraced and traced passes and needs them of each kind).
    while (len(passes) < min_passes
           or time.perf_counter() - begin + statistics.median(walls) <= args.seconds):
        on = bool(tracer) and len(passes) % 2 == 1
        if tracer:
            tracer.enabled = on
        first_ids.append(next_id[0])
        t0 = time.perf_counter()
        ops = w.run_pass(ra, table, inputs, run_op)
        walls.append(time.perf_counter() - t0)
        if tracer:
            tracer.enabled = False
        check_pass(w, ops, refs)
        if passes:  # keep outputs of the first pass only, so memory stays flat
            for o in ops:
                o.summary = None
        passes.append(ops)
        traced.append(on)
    first_ids.append(next_id[0])

    return passes, walls, traced, first_ids


def run(args) -> dict:
    ra = import_package()
    w = WORKLOADS[args.workload]
    size = SIZES[args.size]
    refs = load_refs()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with SpeedSampler() as sampler:
        setup_s, build_s, setup_raw_s, table, inputs = setup(
            ra, w, args.seed, size, refs, sampler)
        passes, walls, traced, first_ids = measure(args, w, ra, table, inputs, refs, tracer)
    for ops in passes:
        spans = [(o.start, o.start + o.seconds) for o in ops]
        for o, (inside, scale) in zip(ops, sampler.scale(spans)):
            o.seconds -= inside
            o.scale = scale

    all_ops = [o for p in passes for o in p]
    failed = sum(o.failed for o in all_ops)
    base = typical([p for p, on in zip(passes, traced) if not on])
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": environment(ra),
        "passes": len(passes), "setup_raw_s": setup_raw_s,
        "pass_raw_s": walls,
        "op_unscaled_s": [[o.seconds for o in p] for p in passes],
        "op_scale": [[o.scale for o in p] for p in passes],
        "attempted": len(all_ops), "failed": failed,
        "failed_ratio": {"failed": failed, "attempted": len(all_ops)},
        "unknown_ratio": {"unknown": sum(o.unknowns for o in all_ops),
                          "verdicts": sum(o.verdicts for o in all_ops)},
        "failures": [f"{o.key[:80]}: {o.error or '; '.join(o.problems)}"
                     for o in all_ops if o.failed][:20],
        "details": {k: {"value": v, "unit": u} for k, (v, u) in w.details(base).items()},
    }
    if tracer:
        from tracing import check_tree, layer_metrics

        tracer.uninstall()
        spans = tracer.arrays()
        record["span_tree_problems"] = check_tree(spans)
        per_pass = []
        for k, on in enumerate(traced):
            if on:
                mask = (spans["op"] >= first_ids[k]) & (spans["op"] < first_ids[k + 1])
                ops = passes[k]
                scale = sum(o.seconds * o.scale for o in ops) / sum(o.seconds for o in ops)
                per_pass.append({name: v * scale if name.endswith("_s") else v
                                 for name, v in layer_metrics(tracer, spans, mask).items()})
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["primes.build_s"] = build_s
        metrics["audit.normalize_steps"] = sum(
            o.summary["steps"] for o in base
            if isinstance(o.summary, dict) and "steps" in o.summary)
        metrics["trace.overhead_s"] = (
            sum(o.seconds for o in typical([p for p, on in zip(passes, traced) if on]))
            - sum(o.seconds for o in base))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_file = out_dir / f"spans-{w.name}-seed{args.seed}-{os.getpid()}.npz"
        tracer.save(spans_file)
        record["spans_file"] = str(spans_file)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(o.seconds for o in base),
            "peak_rss_mb": peak_rss_mb(),
        }
    units = metric_units()
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record["correct"] = failed == 0
    return record


def metric_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']} size {record['size']}: "
          f"{record['passes']} passes in a closed loop, single thread")
    print("environment " + json.dumps(record["env"], sort_keys=True))
    for name, m in record["details"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    f, u = record["failed_ratio"], record["unknown_ratio"]
    print(f"  {'failed_ratio':24s} {f['failed'] / f['attempted']:.6g}  "
          f"({f['failed']} of {f['attempted']} operations)")
    print(f"  {'unknown_ratio':24s} {u['unknown'] / max(u['verdicts'], 1):.6g}  "
          f"({u['unknown']} of {u['verdicts']} verdicts)")
    print(f"  {'raw set-up, pass':24s} {record['setup_raw_s']:.6g} s, "
          f"{statistics.median(record['pass_raw_s']):.6g} s (medians, unscaled)")
    for name, m in record["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    if record.get("span_tree_problems"):
        print("  span tree: " + "; ".join(record["span_tree_problems"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input size; tiny is for bench/selftest.py")
    ap.add_argument("--out", default=str(BENCH / "results"),
                    help="directory for the run record and span file")
    args = ap.parse_args(argv)

    record = run(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{record['workload']}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
