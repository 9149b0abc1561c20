"""Randomized sweeps: sample graphs, bound levels, hunt for violations.

Reproducibility contract: graph bits come from SplitMix64 streams derived
as mix(mix(mix(seed) ^ mix(index)) ^ mix(attempt)), with edge decisions
drawn pair by pair in lexicographic (i, j) order and the edge probability
handled as an exact rational a/b (a draw below b compared against a). The
same seed and config therefore give byte-identical records and aggregate
on any platform and for any worker count (the config echo records the
count), because records are keyed by index and assembled in order.

A slot keeps drawing until W(G) is nonsingular; ``graphs._controllable_profile``
rejects a draw with two equal walk rows (det W = 0) before any Bareiss pass.
No graph on 2-5 vertices is controllable (the tests enumerate all 1,098), so
a slot of such an order is exhausted after zero attempts.

Per controllable graph the sweep computes the profile and bound report,
then (optionally) searches all prime-power levels p^j up to one less than
the determinant valuation - the weaker, previously known ceiling - so a
matrix violating the sharper half-valuation bound would be found, not
assumed away. Everything found is re-verified: witnesses, structural lemma
conclusions, mate-count bounds, and the refined conjecture tally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat

from .analysis import analyze, check_classes
from .arith import is_prime
from .errors import SearchCapExceeded
from .graphs import Graph, _controllable_profile
from .matesearch import distinct_mate_graphs, search_mates

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# draws per slot before the slot is reported as exhausted
MAX_ATTEMPTS = 10000


def mix64(z: int) -> int:
    """SplitMix64 finalizer; the building block for all stream derivation."""
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """The SplitMix64 sequence: state advances by the golden gamma."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        out = mix64(self.state)
        self.state = (self.state + _GAMMA) & _MASK
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % bound


def derive_stream(seed: int, index: int, attempt: int) -> SplitMix64:
    return SplitMix64(mix64(mix64(mix64(seed) ^ mix64(index)) ^ mix64(attempt)))


def random_graph(rng: SplitMix64, n: int, prob_num: int, prob_den: int) -> Graph:
    """One draw of the binomial random graph with exact edge probability.

    Pair (i, j), i < j, taken in lexicographic order, is an edge when
    ``rng.below(prob_den) < prob_num``. The SplitMix64 steps and the
    rejection rule of ``below`` run inline, so a draw consumes exactly the
    outputs that calling ``below`` would.
    """
    adj = [[0] * n for _ in range(n)]
    if n > 1:
        if prob_den <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % prob_den)
        state = rng.state
        for i in range(n):
            row = adj[i]
            for j in range(i + 1, n):
                while True:
                    state = (state + _GAMMA) & _MASK
                    z = ((state ^ (state >> 30)) * _MUL1) & _MASK
                    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
                    z ^= z >> 31
                    if z < limit:
                        break
                if z % prob_den < prob_num:
                    row[j] = adj[j][i] = 1
        rng.state = state
    return Graph(tuple(map(tuple, adj)))


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; identical config + seed means identical report.

    ``primes`` = None means auto (search every odd prime the profile
    qualifies); otherwise only the listed primes are searched and
    witnessed.
    """

    n_min: int = 6
    n_max: int = 10
    graph_count: int = 100
    edge_prob_num: int = 1
    edge_prob_den: int = 2
    seed: int = 0
    level_cap: int = 100
    primes: tuple[int, ...] | None = None
    mates: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("bad vertex range")
        if not 0 <= self.edge_prob_num <= self.edge_prob_den or self.edge_prob_den < 1:
            raise ValueError("edge probability must be a rational in [0, 1]")
        if self.graph_count < 0:
            raise ValueError(f"graph count must be at least 0, got {self.graph_count}")
        if self.level_cap < 1:
            raise ValueError(f"level cap must be at least 1, got {self.level_cap}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.primes is not None:
            if any(p < 3 or not is_prime(p) for p in self.primes):
                raise ValueError(f"sweep primes must be odd primes, got {list(self.primes)}")
            object.__setattr__(self, "primes", tuple(sorted(set(self.primes))))

    def as_dict(self) -> dict:
        return {
            "n_min": self.n_min,
            "n_max": self.n_max,
            "graph_count": self.graph_count,
            "edge_prob": f"{self.edge_prob_num}/{self.edge_prob_den}",
            "seed": self.seed,
            "level_cap": self.level_cap,
            "primes": list(self.primes) if self.primes is not None else "auto",
            "mates": self.mates,
            "workers": self.workers,
        }


def sweep_one(config: SweepConfig, index: int) -> dict:
    """Process one sweep slot: sample until controllable, analyze, search."""
    span = config.n_max - config.n_min + 1
    n = config.n_min + index % span

    if 2 <= n <= 5:  # no graph on 2-5 vertices is controllable
        max_attempts = 0
    else:  # at edge probability 0 or 1 every draw is the same graph
        max_attempts = 1 if config.edge_prob_num in (0, config.edge_prob_den) else MAX_ATTEMPTS
    for attempt in range(max_attempts):
        rng = derive_stream(config.seed, index, attempt)
        graph = random_graph(rng, n, config.edge_prob_num, config.edge_prob_den)
        prof = _controllable_profile(graph)
        if prof is not None:
            break
    else:
        return {"index": index, "n": n, "attempts": max_attempts, "exhausted": True}

    record: dict = {"index": index, "n": n, "attempts": attempt + 1, **analyze(prof)}
    if not config.mates:
        return record

    # search every prime-power level the older valuation-minus-one ceiling
    # allows, so the sharper half-valuation bound is actually tested
    target_primes = [
        p for p in prof.odd_primes()
        if prof.valuation(p) >= 2 and prof.rank_p(p) == prof.n - 1
        and (config.primes is None or p in config.primes)
    ]
    powers = sorted({p ** j for p in target_primes for j in range(1, prof.valuation(p))})
    levels = [q for q in powers if q <= config.level_cap]
    skipped = [q for q in powers if q > config.level_cap]
    record["search"] = {"levels": levels, "levels_over_cap": skipped, "classes": []}
    if not levels:
        return record

    try:
        classes = search_mates(prof, levels)
    except SearchCapExceeded as exc:
        record["search"]["cap_exceeded"] = str(exc)
        return record

    # every class has level p^j for one target prime p, so the witness
    # primes of check_classes are exactly the target primes dividing it
    checked = check_classes(prof, classes)
    record["search"]["classes"] = checked.pop("classes")
    record.update(checked)

    mates_found = len(distinct_mate_graphs(classes))
    record["mates_found"] = mates_found
    mcb = record["mate_bounds"]
    if mcb["basic"] is not None:
        record["mate_bound_check"] = {
            "found": mates_found,
            "improved": mcb["improved"],
            "basic": mcb["basic"],
            "consistent": mates_found <= mcb["improved"] <= mcb["basic"],
        }
    return record


def run_sweep(config: SweepConfig) -> dict:
    """Full sweep report: per-graph records plus an order-independent
    aggregate. Records are computed (possibly in parallel) and come back
    in index order."""
    indices = range(config.graph_count)
    if config.workers > 1:
        # imported here: it loads multiprocessing, pickle, socket and logging,
        # which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(sweep_one, repeat(config), indices))
    else:
        records = [sweep_one(config, i) for i in indices]

    acceptance: dict[int, list[int]] = {}
    rules: dict[str, int] = {}
    agg = {
        "graphs": len(records),
        "searched": 0,
        "classes_found": 0,
        "mates_found": 0,
        "witnesses_checked": 0,
        "bound_violations": [],
        "lemma_failures": [],
        "mate_bound_violations": [],
        "conjecture_violations": [],
        "max_observed_by_prime": {},
    }
    for rec in records:
        stats = acceptance.setdefault(rec["n"], [0, 0])
        stats[1] += rec["attempts"]
        if rec.get("exhausted"):
            continue
        stats[0] += 1
        for entry in rec["bounds"]["per_prime"]:
            rules[entry["rule"]] = rules.get(entry["rule"], 0) + 1
        search = rec.get("search")
        if search is None or not search["levels"]:
            continue
        agg["searched"] += 1
        agg["classes_found"] += len(search["classes"])
        agg["mates_found"] += rec.get("mates_found", 0)
        agg["witnesses_checked"] += len(rec.get("witnesses", ()))
        for v in rec.get("bound_check", {}).get("violations", ()):
            agg["bound_violations"].append({"index": rec["index"], **v})
        for i, chk in enumerate(rec.get("lemma_checks", ())):
            if not chk["all_ok"]:
                agg["lemma_failures"].append({"index": rec["index"], "check": i})
        mbc = rec.get("mate_bound_check")
        if mbc is not None and not mbc["consistent"]:
            agg["mate_bound_violations"].append({"index": rec["index"], **mbc})
        for entry in rec.get("conjecture", {}).get("entries", ()):
            p = str(entry["prime"])
            agg["max_observed_by_prime"][p] = max(
                agg["max_observed_by_prime"].get(p, 0), entry["observed_max"]
            )
            if entry["violates_refined"] or entry["violates_det_half"]:
                agg["conjecture_violations"].append(
                    {"index": rec["index"], "prime": entry["prime"]}
                )
    agg["controllable_acceptance"] = {
        str(n): {"accepted": a, "attempts": t} for n, (a, t) in sorted(acceptance.items())
    }
    agg["rules_fired"] = dict(sorted(rules.items()))
    return {"schema": 1, "config": config.as_dict(), "graphs": records, "aggregate": agg}


def report_json(report: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
