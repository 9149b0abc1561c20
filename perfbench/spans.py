"""Per-module spans and counters for the traced run.

The library's modules import names from each other directly (``snf_int``
is bound in ``graphs``, ``matesearch``, ``bounds`` and ``cli``), so a
function is wrapped at every name it is bound to across ``walklevel``'s
modules. Nothing in ``src/`` changes: ``install`` patches the loaded
modules and ``uninstall`` puts the originals back. The worker installs the
wrappers around single traced operations, so ``start_pass`` marks where
one traced pass begins.

A span is (name, start, end, parent span index, graph id). Spans stay in
memory until ``write_spans``. A function's self time is its inclusive time
minus the time of the listed functions it called.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

TARGETS = {
    "arith": ("factorize", "is_prime"),
    "snf": ("snf_int", "snf_mod_pk", "rank_mod_p", "solvable_mod_pk",
            "kernel_shape", "dn_test", "extend_basis"),
    "intmat": ("det", "char_poly"),
    "graphs": ("walk_matrix", "walk_profile", "isomorphic", "generalized_cospectral"),
    "bounds": ("level_bounds", "dgs_certificate", "family_membership",
               "mate_count_bounds", "extract_four_cong_witness",
               "verify_proof_lemmas", "conjecture_check"),
    "matesearch": ("enumerate_columns", "search_mates"),
    "ortho": ("conjugate", "RatRegOrtho"),
    "sweep": ("random_graph", "sweep_one"),
    "cli": ("main",),
}

# Functions that call other listed functions; only these report self_ms.
WITH_SELF = {
    "arith.factorize", "snf.snf_mod_pk", "snf.rank_mod_p", "snf.solvable_mod_pk",
    "snf.kernel_shape", "snf.dn_test", "snf.extend_basis", "graphs.walk_profile",
    "graphs.generalized_cospectral", "bounds.dgs_certificate",
    "bounds.family_membership", "bounds.mate_count_bounds",
    "bounds.extract_four_cong_witness", "bounds.verify_proof_lemmas",
    "matesearch.enumerate_columns", "matesearch.search_mates",
    "sweep.sweep_one", "cli.main",
}

COUNTERS = {
    "arith.factorize.repeat_calls": "count",
    "snf.snf_int.max_bits": "bits",
    "graphs.walk_profile.singular": "count",
    "matesearch.enumerate_columns.candidates": "count",
    "matesearch.search_mates.classes": "count",
    "sweep.acceptance": "ratio",
    "sweep.accepted": "count",
}
OVERHEAD = {
    "trace.graphs_per_s": "1/s",
    "trace.untraced_graphs_per_s": "1/s",
    "trace.overhead_pct": "%",
    "trace.warmup_ratio": "ratio",
}


def metric_names() -> dict[str, str]:
    """Every per-module metric the traced run prints, with its unit."""
    out = {}
    for mod, names in TARGETS.items():
        for name in names:
            key = f"{mod}.{name}"
            out[f"{key}.calls"] = "count"
            out[f"{key}.ms"] = "ms"
            if key in WITH_SELF:
                out[f"{key}.self_ms"] = "ms"
    out.update(COUNTERS)
    out.update(OVERHEAD)
    return out


def _max_bits(res) -> int:
    return max((x.bit_length() for m in (res.U, res.V) for row in m.data for x in row),
               default=0)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.graph_id = ""
        self.patches: list[tuple[object, str, object, object]] = []
        self.factored: list[set[int]] = []   # distinct |n| per traced pass
        self.counts: list[dict[str, int]] = []
        self.pass_start: list[int] = []      # first span index of each traced pass

    # -- patching ----------------------------------------------------------

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (key, start, end, parent, self.graph_id)
            self._count(key, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, args, result) -> None:
        counts = self.counts[-1]
        if key == "arith.factorize":
            self.factored[-1].add(abs(args[0]))
        elif key == "snf.snf_int":
            counts["snf.snf_int.max_bits"] = max(counts["snf.snf_int.max_bits"], _max_bits(result))
        elif key == "graphs.walk_profile":
            counts["graphs.walk_profile.singular"] += not result.controllable
        elif key == "matesearch.enumerate_columns":
            counts["matesearch.enumerate_columns.candidates"] += len(result)
        elif key == "matesearch.search_mates":
            counts["matesearch.search_mates.classes"] += len(result)
        elif key == "sweep.sweep_one":
            counts["sweep.accepted"] += not result.get("exhausted", False)

    def start_pass(self) -> None:
        self.pass_start.append(len(self.spans))
        self.factored.append(set())
        self.counts.append(defaultdict(int))

    def _find_bindings(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "walklevel" or name.startswith("walklevel.")]
        for mod, names in TARGETS.items():
            home = importlib.import_module(f"walklevel.{mod}")
            for name in names:
                fn = getattr(home, name)
                key = f"{mod}.{name}"
                if isinstance(fn, type):  # a class: time its construction
                    init = fn.__init__
                    self.patches.append((fn, "__init__", init, self._wrap(key, init)))
                    continue
                wrapper = self._wrap(key, fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self.patches.append((m, attr, fn, wrapper))

    def install(self) -> None:
        """Wrap every listed function at every name it is bound to."""
        if not self.patches:
            self._find_bindings()
        for obj, attr, _, wrapper in self.patches:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, orig, _ in reversed(self.patches):
            setattr(obj, attr, orig)

    # -- results -----------------------------------------------------------

    def _pass_metrics(self, k: int) -> dict[str, float]:
        lo = self.pass_start[k]
        hi = self.pass_start[k + 1] if k + 1 < len(self.pass_start) else len(self.spans)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for i in range(lo, hi):
            key, start, end, parent, _ = self.spans[i]
            calls[key] += 1
            total[key] += end - start
            if parent >= lo:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            key, start, end, _, _ = self.spans[i]
            own[key] += end - start - child[i]
        out: dict[str, float] = {}
        for mod, names in TARGETS.items():
            for name in names:
                key = f"{mod}.{name}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.ms"] = total[key] * 1e3
                if key in WITH_SELF:
                    out[f"{key}.self_ms"] = own[key] * 1e3
        counts = self.counts[k]
        for name in COUNTERS:
            out[name] = counts[name]
        out["arith.factorize.repeat_calls"] = calls["arith.factorize"] - len(self.factored[k])
        attempts = calls["sweep.random_graph"]
        out["sweep.acceptance"] = counts["sweep.accepted"] / attempts if attempts else 0.0
        return out

    def metrics(self) -> dict[str, float]:
        """Per-module metrics per traced pass, averaged over the traced passes."""
        per_pass = [self._pass_metrics(k) for k in range(len(self.pass_start))]
        return {name: sum(m[name] for m in per_pass) / len(per_pass) for name in per_pass[0]}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, gid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "graph": gid}) + "\n")
