"""Randomized sweeps: sample graphs, bound levels, hunt for violations.

Reproducibility contract: graph bits come from SplitMix64 streams derived
as mix(mix(mix(seed) ^ mix(index)) ^ mix(attempt)), with edge decisions
drawn pair by pair in lexicographic (i, j) order and the edge probability
handled as an exact rational a/b (a draw below b compared against a). The
same seed and config therefore give byte-identical records and aggregate
on any platform and for any worker count (the config echo records the
count), because records are keyed by index and assembled in order. The
denominator b may be at most 2^64: above it the rejection limit
2^64 - (2^64 mod b) is 0 and no output would ever be accepted, so
``SweepConfig``, ``SplitMix64.below`` and the draw refuse it with ValueError.

A draw is computed in one pass (``_draw_rows``): the k-th output from a
state s is SplitMix64's finalizer applied to s + k*gamma, so the outputs of
all n(n-1)/2 pairs are mixed at once, one per 128-bit lane of a single
int. For a power-of-two b no output is rejected and each pair's test is a
carry inside its lane; for any other b the lanes are read one by one,
skipping rejected outputs as ``below`` does. Either way a draw uses exactly
the outputs that one ``below`` call per pair would, and the sweep computes
mix(mix(seed) ^ mix(index)) once per slot.

A slot keeps drawing until W(G) is nonsingular; ``graphs._controllable_profile``
takes the draw's 0-1 rows, rejects a draw with two equal walk rows
(det W = 0) before any Bareiss pass, and builds and validates a ``Graph``
only for the draw it accepts. No graph on 2-5 vertices is controllable (the
tests enumerate all 1,098), so a slot of such an order is exhausted after
zero attempts.

A slot whose accepted draw cannot be factored within ``arith.RHO_BUDGET``
becomes an unknown record, ``{"index", "n", "attempts", "graph6",
"unknown": {"stage": "factorize", "normalized_det", "factored",
"cofactor"}}``, instead of ending the sweep: ``factored`` holds the primes
found before the budget ran out and ``cofactor`` the number rho could not
split. No analysis runs on such a slot; the aggregate counts it as
accepted and lists it under ``unknown_slots``, a key present only when
some slot is unknown.

Per controllable graph the sweep computes the profile and bound report,
then (optionally) searches all prime-power levels p^j up to one less than
the determinant valuation - the weaker, previously known ceiling - so a
matrix violating the sharper half-valuation bound would be found, not
assumed away. Everything found is re-verified: witnesses, structural lemma
conclusions, mate-count bounds, and the refined conjecture tally.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from struct import iter_unpack

from .analysis import analyze, check_classes
from .arith import is_prime
from .errors import FactorizationError, SearchCapExceeded
from .graphs import Graph, _controllable_profile, _walk_rows, emit_graph6
from .matesearch import distinct_mate_graphs, search_mates

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# draws per slot before the slot is reported as exhausted
MAX_ATTEMPTS = 10000
SCHEMA = 1  # version of every JSON report, the sweep's and the CLI's


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
        if bound > 1 << 64:  # the limit below would be 0: every output rejected
            raise ValueError(f"bound must be at most 2^64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % bound


def derive_stream(seed: int, index: int, attempt: int) -> SplitMix64:
    return SplitMix64(mix64(mix64(mix64(seed) ^ mix64(index)) ^ mix64(attempt)))


@lru_cache(maxsize=128)
def _lane_plan(n: int) -> tuple[int, int, int, tuple[itemgetter, ...]]:
    """Constants for one draw on n >= 2 vertices, built in O(n^2) time.

    With c = n(n-1)/2 pairs and lane k holding bits 128(k-1) to 128k - 1
    of one int: ``ones`` has 1 in every lane, ``steps`` has k*gamma in lane
    k, and ``low`` has 2^64 - 1 in every lane. ``rows`` holds one getter per
    vertex i that reads row i of the adjacency matrix off the c pair bits
    (in lexicographic pair order) followed by one 0 byte for the diagonal.
    """
    pairs = n * (n - 1) // 2
    lane = 1 << 128
    top = 1 << 128 * pairs
    ones = (top - 1) // (lane - 1)
    # sum of k x^(k-1) for k = 1..c at x = 2^128, in closed form
    ramp = (pairs * top * lane - (pairs + 1) * top + 1) // (lane - 1) ** 2
    offset = [i * (2 * n - i - 1) // 2 - i - 1 for i in range(n)]  # pair (i, j) is offset[i] + j
    rows = tuple(
        itemgetter(*[offset[min(i, j)] + max(i, j) if i != j else pairs for j in range(n)])
        for i in range(n))
    return ones, _GAMMA * ramp, ones * _MASK, rows


def _mix_lanes(state: int, ones: int, steps: int, low: int) -> int:
    """The k-th SplitMix64 output from ``state`` in lane k: the finalizer of state + k*gamma.

    Each lane holds a value below 2^64 between steps, so a product by a
    64-bit multiplier stays inside its 128-bit lane, and masking each
    shifted copy with ``low`` drops the bits it took from the lane above.
    """
    z = (state * ones + steps) & low
    z = ((z ^ (z >> 30 & low)) * _MUL1) & low
    z = ((z ^ (z >> 27 & low)) * _MUL2) & low
    return z ^ (z >> 31 & low)


def _draw_rows(state: int, n: int, prob_num: int, prob_den: int) -> tuple[tuple, int]:
    """The 0-1 adjacency rows of one draw from ``state``, and the state after it.

    Pair (i, j), i < j, taken in lexicographic order, is an edge when the
    next SplitMix64 output w below the rejection limit L = 2^64 - (2^64 mod
    den) has w mod den < num; an output at or above L is skipped, exactly as
    ``SplitMix64.below`` skips it. All pairs' outputs are mixed at once, one
    per 128-bit lane of a single int. For a power-of-two den, L = 2^64 and
    the test is a carry in each lane: (2^e - 1 - (w mod 2^e)) + num reaches
    2^e exactly when w mod 2^e < num, for den = 2^e. For any other den the
    lanes are read one by one and the outputs of further batches fill the
    pairs left by skipped ones, so the stream ends where one ``below`` call
    per pair leaves it.
    """
    if not 0 < prob_den <= 1 << 64:
        raise ValueError(f"edge probability denominator must be in 1..2^64, got {prob_den}")
    if n < 2:
        return ((0,),) * n, state
    ones, steps, low, getters = _lane_plan(n)
    pairs = n * (n - 1) // 2
    if prob_den & (prob_den - 1) == 0:
        if prob_num <= 0 or prob_num >= prob_den:
            bits = bytes([prob_num > 0]) * pairs
        else:
            e = prob_den.bit_length() - 1
            cut = ones * (prob_den - 1)
            z = _mix_lanes(state, ones, steps, low)
            z = (((z & cut) ^ cut) + prob_num * ones) >> e & ones
            bits = z.to_bytes(16 * pairs, "little")[::16]
        state = (state + pairs * _GAMMA) & _MASK
    else:
        limit = (1 << 64) - (1 << 64) % prob_den
        bits = bytearray()
        while len(bits) < pairs:
            z = _mix_lanes(state, ones, steps, low)
            # "<Q8x" reads each 16-byte lane's low 8 bytes: its output w
            for used, (w,) in enumerate(iter_unpack("<Q8x", z.to_bytes(16 * pairs, "little")), 1):
                if w < limit:
                    bits.append(w % prob_den < prob_num)
                    if len(bits) == pairs:
                        break
            state = (state + used * _GAMMA) & _MASK
    bits += b"\0"
    return tuple([row(bits) for row in getters]), state


def random_graph(rng: SplitMix64, n: int, prob_num: int, prob_den: int) -> Graph:
    """One draw of the binomial random graph with exact edge probability.

    Pair (i, j), i < j, taken in lexicographic order, is an edge when
    ``rng.below(prob_den) < prob_num``; ``_draw_rows`` makes the draw and
    consumes exactly the outputs that calling ``below`` would.
    """
    rows, rng.state = _draw_rows(rng.state, n, prob_num, prob_den)
    return Graph(rows)


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
        if self.n_min < 1:
            raise ValueError(f"bad vertex range: n_min must be at least 1, got {self.n_min}")
        if self.n_max < self.n_min:
            raise ValueError(f"bad vertex range: n_min {self.n_min} > n_max {self.n_max}")
        if not 0 <= self.edge_prob_num <= self.edge_prob_den or self.edge_prob_den < 1:
            raise ValueError("edge probability must be a rational in [0, 1], "
                             f"got {self.edge_prob_num}/{self.edge_prob_den}")
        if self.edge_prob_den > 1 << 64:
            raise ValueError("edge probability denominator must be at most 2^64, "
                             f"got {self.edge_prob_den}")
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
    slot = mix64(mix64(config.seed) ^ mix64(index))  # derive_stream's state, less the attempt
    for attempt in range(max_attempts):
        adj, _ = _draw_rows(mix64(slot ^ mix64(attempt)), n, config.edge_prob_num,
                            config.edge_prob_den)
        rows = _walk_rows(adj)
        try:
            prof = _controllable_profile(adj, rows)
        except FactorizationError as exc:
            # the draw is accepted; a partial prime table gets no analysis
            bare = _controllable_profile(adj, rows, ())
            return {"index": index, "n": n, "attempts": attempt + 1,
                    "graph6": emit_graph6(bare.graph),
                    "unknown": {"stage": "factorize", "normalized_det": bare.normalized_det,
                                "factored": {str(p): e for p, e in exc.factored.items()},
                                "cofactor": exc.cofactor}}
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
    in index order.

    A process pool starts all its workers at once, so it gets at most
    min(workers, graph_count, os.cpu_count()) of them, and the sweep runs
    in this process when that is 1; the config echo keeps the requested
    count."""
    indices = range(config.graph_count)
    workers = min(config.workers, config.graph_count, os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, pickle, socket and logging,
        # which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(sweep_one, repeat(config), indices))
    else:
        records = [sweep_one(config, i) for i in indices]

    acceptance: dict[int, list[int]] = {}
    rules: dict[str, int] = {}
    unknown: list[int] = []
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
        if "unknown" in rec:
            unknown.append(rec["index"])
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
    if unknown:
        agg["unknown_slots"] = unknown
    return {"schema": SCHEMA, "config": config.as_dict(), "graphs": records, "aggregate": agg}


def report_json(report: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
