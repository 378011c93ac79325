"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json keeps its format, that every workload finishes
with correct outputs, that the result line names exactly the metrics of
BENCHMARK.json, that the traced span tree is well formed (children inside
their parents, self times >= 0), that every metric in predictions.json
exists, and that the benchmark fails without the package source.
"""

from __future__ import annotations

import fnmatch
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / "results" / "selftest"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(BENCH))
from tracing import check_tree  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(cond: bool, message: str, problems: list[str]) -> None:
    if not cond:
        problems.append(message)


def check_spec(spec: dict, problems: list[str]) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys", problems)
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(WORKLOADS), f"workloads {names}", problems)
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(len(set(all_names)) == len(all_names), "a name is used twice", problems)
    for m in metrics:
        check(bool(NAME.match(m["name"])), f"bad metric name {m['name']}", problems)
        check(m["better"] in ("higher", "lower"), f"{m['name']}: better", problems)
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"{m['name']}: keys", problems)
        check(0 < m["bound"] <= 0.25, f"{m['name']}: bound", problems)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(bounds.get("setup_s") == max(bounds.values()), "setup_s needs the largest bound",
          problems)
    for w in spec["workloads"]:
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"{w['name']}: why", problems)


def check_predictions(spec: dict, problems: list[str]) -> None:
    with open(BENCH / "predictions.json", encoding="utf-8") as fh:
        pred = json.load(fh)
    layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    details = set(pred["workload_metrics"])
    for row in pred["predictions"]:
        check(bool(fnmatch.filter(layer, row["layer_metric"])),
              f"prediction names {row['layer_metric']}", problems)
        check(row["workload"] in WORKLOADS, f"prediction names {row['workload']}", problems)
        for m in row["moves"] + row.get("unchanged", []):
            check(m in e2e or m in details, f"prediction names {m}", problems)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int, problems: list[str]) -> None:
    out = SCRATCH / f"{workload}-{trace}"
    shutil.rmtree(out, ignore_errors=True)
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny", "--out", str(out))
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys", problems)
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{where}: outputs not correct", problems)
    expect = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expect, f"{where}: metric names or units differ from BENCHMARK.json",
          problems)
    if trace:
        record = json.loads(next(out.glob("*.json")).read_text())
        with np.load(record["spans_file"]) as z:
            spans = {k: z[k] for k in z.files}
        check(spans["start"].size > 0, f"{where}: no spans", problems)
        for p in check_tree(spans):
            problems.append(f"{where}: {p}")


def check_without_source(problems: list[str]) -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(bare, "--workload", "corpus", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "the benchmark must fail without the package source", problems)
    shutil.rmtree(bare)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    check_spec(spec, problems)
    check_predictions(spec, problems)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace, problems)
    check_without_source(problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
