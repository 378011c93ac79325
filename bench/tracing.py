"""Span tracing for the benchmark, done entirely from outside the package.

Every traced function is replaced by a wrapper in each module namespace
where a caller looks it up, because the package imports names directly
(``robinaudit.audit.log_n`` is a different binding from
``robinaudit.factored.log_n``).  Spans are kept in flat arrays in memory
(name, start, end, parent, operation id) and written out once, at the end
of the run.

A span's self time is its duration minus the time covered by its child
spans.  Inclusive time of a name counts only spans that have no ancestor
of the same name, so recursion through two namespaces is not counted
twice.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable

import numpy as np

PRIMITIVES = (
    "iv_add", "iv_mul", "iv_div", "iv_log", "iv_exp", "iv_pow",
    "iv_compare", "iv_from_int_rounded",
)

# attribute name -> (module that defines it, span name)
FUNCTIONS = {
    "sigma_range": ("robinaudit.generators", "generators.sigma_range"),
    "verify_range": ("robinaudit.generators", "generators.verify_range"),
    "superabundant_up_to": ("robinaudit.generators", "generators.superabundant_up_to"),
    "ca_sweep": ("robinaudit.generators", "generators.ca_sweep"),
    "dusart_gap_holds": ("robinaudit.primes", "primes.dusart_gap_holds"),
    "log_n": ("robinaudit.factored", "factored.log_n"),
    "rho": ("robinaudit.factored", "factored.rho"),
    "n_over_phi": ("robinaudit.factored", "factored.n_over_phi"),
    "g_ratio_divide": ("robinaudit.factored", "factored.g_ratio"),
    "g_ratio_swap": ("robinaudit.factored", "factored.g_ratio"),
    "compute_m": ("robinaudit.audit", "audit.compute_m"),
    "full_audit": ("robinaudit.audit", "audit.full_audit"),
    "normalize": ("robinaudit.audit", "audit.normalize"),
    "main": ("robinaudit.cli", "cli.main"),
}
FUNCTIONS.update({p: ("robinaudit.intervals", "intervals." + p) for p in PRIMITIVES})

MODULES = (
    "robinaudit", "robinaudit.intervals", "robinaudit.primes",
    "robinaudit.factored", "robinaudit.generators", "robinaudit.audit",
    "robinaudit.cli",
)

# Aggregates whose union is compared with full_audit time.
AGGREGATES = ("factored.log_n", "factored.rho", "factored.n_over_phi",
              "audit.compute_m")


def _site(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans around wrapped calls while ``enabled`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.top = array("b")  # 1 iff no ancestor has the same name
        self._stack: list[int] = []
        self._active: list[int] = []  # open spans per name id
        self.op_id = -1
        self.enabled = False
        self._undo: list[Callable[[], None]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        clock = time.perf_counter
        stack, active = self._stack, self._active
        start, end, parent = self.start, self.end, self.parent
        names, ops, top = self.name, self.op, self.top

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            top.append(0 if active[nid] else 1)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        mods = [importlib.import_module(m) for m in MODULES]
        for mod in mods:
            for attr, (home, span) in FUNCTIONS.items():
                fn = mod.__dict__.get(attr)
                if fn is None or getattr(fn, "__module__", None) != home:
                    continue
                if attr in PRIMITIVES:
                    span = f"{span}@{_site(mod.__name__)}"
                self._patch(mod, attr, self.wrap(span, fn))
        primes = importlib.import_module("robinaudit.primes")
        table_cls = primes.PrimeTable
        build = table_cls.__dict__["build"]
        self._patch(table_cls, "build",
                    classmethod(self.wrap("primes.build", build.__func__)))
        checks = importlib.import_module("robinaudit.audit")._CHECK_FUNCS
        originals = dict(checks)
        for cid, fn in originals.items():
            checks[cid] = self.wrap(f"audit.check.{cid}", fn)
        self._undo.append(lambda: checks.update(originals))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        return {
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64, count=n).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64, count=n).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64, count=n).copy(),
            "top": np.frombuffer(self.top, dtype=np.int8, count=n).astype(bool),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    dur = a["end"] - a["start"]
    covered = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(covered, a["parent"][has_parent], dur[has_parent])
    return dur - covered


def check_tree(a: dict[str, np.ndarray], tol: float = 1e-9) -> list[str]:
    """Problems with the span tree: open spans, children outside their
    parent, negative self time.  Empty when the tree is well formed."""
    problems = []
    start, end, parent = a["start"], a["end"], a["parent"]
    if np.any(end < start):
        problems.append(f"{int(np.sum(end < start))} spans end before they start")
    kids = np.flatnonzero(parent >= 0)
    p = parent[kids]
    if np.any(p >= kids):
        problems.append("a parent span was opened after its child")
    outside = (start[kids] < start[p]) | (end[kids] > end[p])
    if np.any(outside):
        problems.append(f"{int(np.sum(outside))} child spans lie outside their parent")
    st = self_times(a)
    if st.size and st.min() < -tol:
        problems.append(f"negative self time {st.min():.3g} s")
    return problems


def _under(a: dict[str, np.ndarray], idx: int, ancestor_ids: set[int]) -> bool:
    """True iff span idx has an ancestor named in ancestor_ids."""
    p = int(a["parent"][idx])
    while p >= 0:
        if int(a["name"][p]) in ancestor_ids:
            return True
        p = int(a["parent"][p])
    return False


def layer_metrics(tracer: Tracer, a: dict[str, np.ndarray],
                  mask: np.ndarray) -> dict[str, float]:
    """Per-layer totals over the spans selected by ``mask`` (one pass)."""
    names = tracer.names
    dur = a["end"] - a["start"]
    own = self_times(a)
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    idx = np.flatnonzero(mask)
    nid = a["name"][idx]
    for k, name in enumerate(names):
        sel = idx[nid == k]
        if not sel.size:
            continue
        calls[name] = int(sel.size)
        self_s[name] = float(own[sel].sum())
        incl[name] = float(dur[sel[a["top"][sel]]].sum())

    def total(table, prefix):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "@"))

    out: dict[str, float] = {
        "generators.verify_range_s": incl.get("generators.verify_range", 0.0),
        "generators.sigma_range_s": incl.get("generators.sigma_range", 0.0),
        "generators.sigma_segments": calls.get("generators.sigma_range", 0),
        "generators.classify_attempts": calls.get("intervals.iv_compare@generators", 0),
        "generators.ca_sweep_s": incl.get("generators.ca_sweep", 0.0),
        "primes.gap_s": incl.get("primes.dusart_gap_holds", 0.0),
        "factored.log_n_s": incl.get("factored.log_n", 0.0),
        "factored.rho_s": incl.get("factored.rho", 0.0),
        "factored.n_over_phi_s": incl.get("factored.n_over_phi", 0.0),
        "factored.g_ratio_s": incl.get("factored.g_ratio", 0.0),
        "audit.full_audit_s": incl.get("audit.full_audit", 0.0),
        "audit.compute_m_s": incl.get("audit.compute_m", 0.0),
        "audit.normalize_s": incl.get("audit.normalize", 0.0),
        "cli.main_self_s": self_s.get("cli.main", 0.0),
    }
    audit = importlib.import_module("robinaudit.audit")
    for cid in audit.CHECK_IDS:
        out[f"audit.check.{cid}_s"] = self_s.get(f"audit.check.{cid}", 0.0)
    for p in PRIMITIVES:
        out[f"intervals.{p}.calls"] = total(calls, "intervals." + p)
        out[f"intervals.{p}_s"] = total(incl, "intervals." + p)

    ids = {n: i for i, n in enumerate(names)}
    # share of verify time spent in the sigma sieve
    verify_ids = {ids[n] for n in ("generators.verify_range",) if n in ids}
    sigma = idx[nid == ids.get("generators.sigma_range", -1)]
    sigma_in_verify = sum(float(dur[i]) for i in sigma if _under(a, i, verify_ids))
    verify_s = out["generators.verify_range_s"]
    out["generators.sigma_share_of_verify"] = sigma_in_verify / verify_s if verify_s else 0.0
    # share of full_audit time covered by the certified aggregates
    audit_ids = {ids[n] for n in ("audit.full_audit",) if n in ids}
    agg_ids = {ids[n] for n in AGGREGATES if n in ids}
    agg = idx[np.isin(nid, list(agg_ids))] if agg_ids else idx[:0]
    covered = sum(float(dur[i]) for i in agg
                  if not _under(a, i, agg_ids) and _under(a, i, audit_ids))
    audit_s = out["audit.full_audit_s"]
    out["audit.aggregate_share_of_audit"] = covered / audit_s if audit_s else 0.0
    return out
