"""Randomized sweeps: sample graphs, bound levels, hunt for violations.

Reproducibility contract: graph bits come from SplitMix64 streams derived
as mix(mix(mix(seed) ^ mix(index)) ^ mix(attempt)), with edge decisions
drawn pair by pair in lexicographic (i, j) order and the edge probability
handled as an exact rational a/b (a draw below b compared against a). The
same seed and config therefore give byte-identical reports on any
platform, regardless of worker count, because records are keyed by index
and assembled in order.

Per controllable graph the sweep computes the profile and bound report,
then (optionally) searches all prime-power levels p^j up to one less than
the determinant valuation - the weaker, previously known ceiling - so a
matrix violating the sharper half-valuation bound would be found, not
assumed away. Everything found is re-verified: witnesses, structural lemma
conclusions, mate-count bounds, and the refined conjecture tally.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .bounds import (
    conjecture_check,
    dgs_certificate,
    extract_four_cong_witness,
    family_membership,
    level_bounds,
    mate_count_bounds,
    verify_proof_lemmas,
)
from .errors import SearchCapExceeded
from .graphs import Graph, emit_graph6, walk_matrix, walk_profile
from .intmat import det
from .matesearch import distinct_mate_graphs, search_mates

_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer; the building block for all stream derivation."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """The SplitMix64 sequence: state advances by the golden gamma."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

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
    """One draw of the binomial random graph with exact edge probability."""
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(prob_den) < prob_num:
                adj[i][j] = adj[j][i] = 1
    return Graph(tuple(tuple(row) for row in adj))


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; identical config + seed means identical report.

    ``primes`` = None means auto (search every odd prime the profile
    qualifies); otherwise only the listed primes are searched and
    witnessed. ``output_path`` makes run_sweep write the canonical JSON
    report there as a side effect.
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
    max_attempts: int = 10000
    workers: int = 1
    output_path: str | None = None

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("bad vertex range")
        if not 0 <= self.edge_prob_num <= self.edge_prob_den or self.edge_prob_den < 1:
            raise ValueError("edge probability must be a rational in [0, 1]")
        if self.primes is not None:
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


def _v(level: int, p: int) -> int:
    k = 0
    while level % p == 0:
        level //= p
        k += 1
    return k


def sweep_one(config: SweepConfig, index: int) -> dict:
    """Process one sweep slot: sample until controllable, analyze, search."""
    span = config.n_max - config.n_min + 1
    n = config.n_min + index % span

    graph = None
    attempts = 0
    for attempt in range(config.max_attempts):
        attempts += 1
        rng = derive_stream(config.seed, index, attempt)
        cand = random_graph(rng, n, config.edge_prob_num, config.edge_prob_den)
        if det(walk_matrix(cand)):
            graph = cand
            break
    if graph is None:
        return {"index": index, "n": n, "attempts": attempts, "exhausted": True}

    prof = walk_profile(graph)
    bounds_rep = level_bounds(prof)
    record: dict = {
        "index": index,
        "n": n,
        "attempts": attempts,
        "graph6": emit_graph6(graph),
        "profile": prof.as_dict(),
        "bounds": bounds_rep.as_dict(),
        "dgs": dgs_certificate(prof).as_dict(),
        "family": family_membership(prof).as_dict(),
        "mate_bounds": mate_count_bounds(prof.invariant_factors).as_dict(),
    }

    if not config.mates:
        return record

    # search every prime-power level the older valuation-minus-one ceiling
    # allows, so the sharper half-valuation bound is actually tested
    target_primes = [
        p for p in prof.odd_primes()
        if prof.valuation(p) >= 2 and prof.rank_p(p) == prof.n - 1
        and (config.primes is None or p in config.primes)
    ]
    levels = sorted({
        p ** j
        for p in target_primes
        for j in range(1, prof.valuation(p))
        if p ** j <= config.level_cap
    })
    skipped = sorted({
        p ** j
        for p in target_primes
        for j in range(1, prof.valuation(p))
        if p ** j > config.level_cap
    })
    record["search"] = {"levels": levels, "levels_over_cap": skipped, "classes": []}
    if not levels:
        return record

    try:
        classes = search_mates(graph, levels)
    except SearchCapExceeded as exc:
        record["search"]["cap_exceeded"] = str(exc)
        return record

    bound_violations = []
    witnesses = []
    lemma_checks = []
    for cls in classes:
        record["search"]["classes"].append({
            "level": cls.level,
            "qhat": [list(row) for row in cls.q.num.data],
            "mate_graph6": emit_graph6(cls.mate),
            "isomorphic_to_input": cls.isomorphic_to_input,
        })
        for p in target_primes:
            tau = _v(cls.level, p)
            if tau == 0:
                continue
            if tau > prof.valuation(p) // 2:
                bound_violations.append({"prime": p, "level": cls.level, "tau": tau})
            wit = extract_four_cong_witness(graph, cls.q, p)
            witnesses.append(wit.as_dict())
            lemma_checks.append(verify_proof_lemmas(graph, wit).as_dict())

    record["witnesses"] = witnesses
    record["lemma_checks"] = lemma_checks
    record["bound_check"] = {"violations": bound_violations}

    mates_found = len(distinct_mate_graphs(classes))
    record["mates_found"] = mates_found
    mcb = mate_count_bounds(prof.invariant_factors)
    if mcb.applicable:
        record["mate_bound_check"] = {
            "found": mates_found,
            "improved": mcb.improved,
            "basic": mcb.basic,
            "consistent": mates_found <= mcb.improved <= mcb.basic,
        }

    observed = [cls.level for cls in classes]
    record["conjecture"] = conjecture_check(prof, observed).as_dict()
    return record


def _sweep_one_star(args):
    return sweep_one(*args)


def run_sweep(config: SweepConfig) -> dict:
    """Full sweep report: per-graph records plus an order-independent
    aggregate. Records are computed (possibly in parallel) keyed by index,
    then assembled in index order."""
    indices = list(range(config.graph_count))
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_sweep_one_star, ((config, i) for i in indices)))
    else:
        records = [sweep_one(config, i) for i in indices]
    records.sort(key=lambda r: r["index"])

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
        stats[0] += 1
        stats[1] += rec["attempts"]
        if rec.get("exhausted"):
            continue
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
    report = {"schema": 1, "config": config.as_dict(), "graphs": records, "aggregate": agg}
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(report_json(report))
    return report


def report_json(report: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
