"""Golden outputs: audit and normalize reports and CLI output, byte for byte.

The files under tests/golden/ hold the exact text of every audit report
(128 and 256 bits) and normalization trace for the criterion 7, 9 and 10
corpora of test_acceptance.py, and the stdout and exit code of every CLI
command in every output format.  Any change to a verdict, a witness
enclosure, a key order or a CSV/text line fails here.  After an intended
output change, regenerate the files and review their diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from robinaudit import audit, cli
from robinaudit.audit import full_audit, normalize, report_to_json_str
from robinaudit.errors import RobinAuditError
from robinaudit.factored import CandidateFactorization
from robinaudit.primes import PrimeTable
from test_acceptance import _perturbations, _precision_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"

# Every criterion 10 candidate normalizes within 53 steps; the 2^(1.5e14)
# candidate of criterion 7 would divide for the full default 10000 steps
# (about 40 s and 4 MB of trace), so it stops at this limit instead.
STEP_LIMIT = 64

CLI_COMMANDS = [
    ["verify", "--from", "3", "--to", "200"],
    ["sa", "--limit", "1000"],
    ["ca", "--epsilon", "1/20"],
    ["ca", "--count", "3"],
    ["audit", '{"exponents": [4, 2, 1, 1]}'],
    ["audit", '{"exponents": [4, 2, 1, 1]}', "--alt-log-window"],
    ["normalize", '{"exponents": [1, 1, 1, 1, 1, 1]}'],
    ["selftest"],
]


def _corpora(t):
    return {
        "audit_criterion_7": _precision_corpus(t),
        "audit_criterion_9": [
            CandidateFactorization.from_exponents(e) for e in ([4, 2, 1, 1], [1] * 6)
        ],
        "audit_criterion_10": [
            CandidateFactorization.from_exponents(e) for e in _perturbations()
        ],
    }


def _normalized(c, t) -> str:
    try:
        res = normalize(c, t, step_limit=STEP_LIMIT)
    except RobinAuditError as e:
        return f"error: {type(e).__name__}: {e}"
    return json.dumps(res.to_json(), sort_keys=True, indent=2)


def _audit_blocks(corpus, t):
    for c in corpus:
        for prec in (128, 256):
            yield f"{c} audit {prec}", report_to_json_str(full_audit(c, t, prec))
        yield f"{c} normalize", _normalized(c, t)


def _cli_blocks():
    for command in CLI_COMMANDS:
        for fmt in ("json", "csv", "text"):
            argv = command + ["--prime-limit", "1000", "--format", fmt]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            yield f"{' '.join(argv)} -> exit {code}", out.getvalue()


def _render(blocks) -> str:
    """One '### <case>' header line per case, then its exact output."""
    return "".join(f"### {name}\n{text}\n" for name, text in blocks)


def _first_difference(expected: str, actual: str) -> str:
    exp = expected.split("\n### ")
    act = actual.split("\n### ")
    for e, a in zip(exp, act):
        if e != a:
            return "first differing case: " + a.split("\n", 1)[0]
    return f"case count differs: {len(exp)} recorded, {len(act)} now"


def _golden_texts():
    t = PrimeTable.build(10**6)
    texts = {name: _render(_audit_blocks(corpus, t))
             for name, corpus in _corpora(t).items()}
    texts["cli"] = _render(_cli_blocks())
    return texts


@pytest.fixture(scope="module")
def current():
    return _golden_texts()


@pytest.mark.parametrize(
    "name", ["audit_criterion_7", "audit_criterion_9", "audit_criterion_10", "cli"]
)
def test_matches_golden(name, current):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    actual = current[name].encode("utf-8")
    assert actual == expected, _first_difference(
        expected.decode("utf-8"), current[name]
    )


def _ratio_endpoints_dropped(text: str):
    if text.startswith("error: "):
        return text
    doc = json.loads(text)
    for step in doc["trace"]:
        if step["ratio"] is not None:
            step["ratio"] = sorted(step["ratio"])
    return doc


def test_carried_log_n_moves_only_ratio_endpoints(monkeypatch):
    # a fresh log n at every step is what normalize computed before it
    # carried log n from step to step
    t = PrimeTable.build(10**6)
    cases = [c for corpus in _corpora(t).values() for c in corpus]
    carried = [_normalized(c, t) for c in cases]
    monkeypatch.setattr(audit, "_RESUM_STEPS", 1)
    fresh = [_normalized(c, t) for c in cases]
    assert carried != fresh  # the criterion 7 walk carries log n 63 times
    assert ([_ratio_endpoints_dropped(x) for x in carried]
            == [_ratio_endpoints_dropped(x) for x in fresh])


if __name__ == "__main__":
    os.environ.pop(cli._ENV_PRECISION, None)
    GOLDEN.mkdir(exist_ok=True)
    for name, text in _golden_texts().items():
        (GOLDEN / f"{name}.txt").write_bytes(text.encode("utf-8"))
        print(f"wrote {GOLDEN / name}.txt")
