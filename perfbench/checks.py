"""Checks of the workloads' outputs, made apart from the library.

Nothing here calls ``walklevel``. Graphs are decoded with networkx,
determinants and characteristic polynomials come from sympy's
``DomainMatrix`` over ZZ, primality from ``sympy.isprime``, isomorphism
from ``networkx.is_isomorphic``, and ranks mod p from the plain
elimination below. Each check returns a list of error strings; an empty
list means the output passed. No check compares against a stored copy of
an earlier output.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd, prod
from pathlib import Path

import networkx as nx
from sympy import ZZ, factorint, isprime, multiplicity
from sympy.polys.matrices import DomainMatrix

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "walklevel" / "fixtures"


# ---------------------------------------------------------------------------
# independent arithmetic
# ---------------------------------------------------------------------------


def decode_graph6(g6: str) -> list[list[int]]:
    g = nx.from_graph6_bytes(g6.strip().encode())
    n = g.number_of_nodes()
    adj = [[0] * n for _ in range(n)]
    for u, v in g.edges():
        adj[u][v] = adj[v][u] = 1
    return adj


def parse_matrix(text: str) -> list[list[int]]:
    """The fixture text format: a header line (n), then n rows; '#' comments."""
    rows = [[int(x) for x in line.split()] for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    return rows[1:]


def _dm(rows: list[list[int]]) -> DomainMatrix:
    return DomainMatrix([[ZZ(x) for x in row] for row in rows], (len(rows), len(rows[0])), ZZ)


def charpoly(rows: list[list[int]]) -> list[int]:
    return [int(c) for c in _dm(rows).charpoly()]


def complement(adj: list[list[int]]) -> list[list[int]]:
    n = len(adj)
    return [[0 if i == j else 1 - adj[i][j] for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        prow = [x * inv % p for x in m[rank]]
        for r in range(rank + 1, len(m)):
            f = m[r][c]
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], prow)]
        rank += 1
    return rank


class Facts:
    """Invariants of one graph, computed apart from the library."""

    def __init__(self, adj: list[list[int]]):
        self.adj = adj
        self.n = n = len(adj)
        cols = [[1] * n]
        for _ in range(n - 1):
            v = cols[-1]
            cols.append([sum(v[j] for j in range(n) if adj[i][j]) for i in range(n)])
        self.walk = transpose(cols)
        self.det = int(_dm(self.walk).det())
        self._ranks: dict[int, int] = {}

    def rank(self, p: int) -> int:
        if p not in self._ranks:
            self._ranks[p] = rank_mod_p(self.walk, p)
        return self._ranks[p]


# ---------------------------------------------------------------------------
# checks on one output
# ---------------------------------------------------------------------------


def check_profile(facts: Facts, prof: dict, complete: bool) -> list[str]:
    """Profile against the independent det W and ranks; with ``complete``,
    the listed odd primes must account for all of |normalized det|."""
    n, d = facts.n, facts.det
    if prof["n"] != n:
        return [f"profile n {prof['n']} != {n}"]
    if d == 0 or not prof["controllable"]:
        return [f"controllable graph expected: det W = {d}, reported {prof['det_w']}"]
    errs = []
    if prof["det_w"] != d:
        errs.append(f"det W {prof['det_w']} != independent {d}")
    inv = prof["invariant_factors"]
    if len(inv) != n or min(inv) < 1 or any(b % a for a, b in zip(inv, inv[1:])):
        errs.append(f"invariant factors {inv} are not a divisibility chain of length {n}")
    elif prod(inv) != abs(d):
        errs.append(f"product of invariant factors {prod(inv)} != |det W| {abs(d)}")
    nd = prof["normalized_det"]
    if d != 2 ** (n // 2) * nd:
        errs.append(f"det W {d} != 2^{n // 2} * normalized det {nd}")
    rest = abs(nd)
    for key, info in prof["primes"].items():
        p = int(key)
        if not isprime(p):
            errs.append(f"listed prime {p} is not prime")
            continue
        if info["valuation"] != multiplicity(p, d):
            errs.append(f"v_{p}(det W) {info['valuation']} != {multiplicity(p, d)}")
        rank = facts.rank(p)
        by_factors = sum(1 for x in inv if x % p)
        if not info["rank"] == rank == by_factors:
            errs.append(f"rank mod {p}: reported {info['rank']}, GF(p) {rank}, "
                        f"from invariant factors {by_factors}")
        while rest % p == 0:
            rest //= p
    if complete:
        while rest % 2 == 0:
            rest //= 2
        if rest != 1:
            errs.append(f"listed primes leave the cofactor {rest} of the normalized det")
    return errs


def expected_bounds(facts: Facts, primes) -> dict:
    """The README's bound table, applied to the independent (v_p, rank_p)."""
    n, d = facts.n, facts.det
    nd = d // 2 ** (n // 2)
    rows = [(2, 0, "two-adic-odd") if nd % 2 else (2, None, "none")]
    for p in sorted(p for p in primes if p != 2):
        v = multiplicity(p, d)
        if v == 0:
            continue
        if v == 1:
            rows.append((p, 0, "odd-squarefree"))
        elif facts.rank(p) == n - 1:
            rows.append((p, v // 2, "half-valuation"))
        else:
            rows.append((p, None, "none"))
    overall = None
    if all(e is not None for _, e, _ in rows):
        overall = prod(p ** e for p, e, _ in rows)
    return {"per_prime": [{"prime": p, "exponent": e, "rule": r} for p, e, r in rows],
            "overall_divisor": overall}


def check_bounds(facts: Facts, prof: dict, bounds: dict) -> list[str]:
    want = expected_bounds(facts, [int(p) for p in prof["primes"]])
    return [] if bounds == want else [f"bounds {bounds} != README table {want}"]


def check_class(facts: Facts, cls: dict) -> list[str]:
    """One mate class: q^T q = l^2 I, regular, lowest terms, q^T A q = l^2 A(mate),
    generalized cospectral mate, isomorphism flag, and the half-valuation bound."""
    n, lvl, q = facts.n, cls["level"], cls["qhat"]
    tag = f"class at level {lvl}"
    if len(q) != n or any(len(row) != n for row in q):
        return [f"{tag}: qhat is not {n}x{n}"]
    errs = []
    l2 = lvl * lvl
    if matmul(transpose(q), q) != [[l2 if i == j else 0 for j in range(n)] for i in range(n)]:
        errs.append(f"{tag}: qhat^T qhat != l^2 I")
    if any(sum(row) != lvl for row in q) or any(sum(col) != lvl for col in zip(*q)):
        errs.append(f"{tag}: a row or column of qhat does not sum to l")
    if gcd(lvl, *(x for row in q for x in row)) != 1:
        errs.append(f"{tag}: qhat and l share a factor, so l is not the level")
    mate = decode_graph6(cls["mate_graph6"])
    if matmul(matmul(transpose(q), facts.adj), q) != [[l2 * x for x in row] for row in mate]:
        errs.append(f"{tag}: qhat^T A qhat != l^2 A(mate)")
    if charpoly(facts.adj) != charpoly(mate):
        errs.append(f"{tag}: characteristic polynomials of G and mate differ")
    if charpoly(complement(facts.adj)) != charpoly(complement(mate)):
        errs.append(f"{tag}: characteristic polynomials of the complements differ")
    iso = nx.is_isomorphic(_nx_graph(facts.adj), _nx_graph(mate))
    if iso != cls["isomorphic_to_input"]:
        errs.append(f"{tag}: isomorphic_to_input {cls['isomorphic_to_input']} != networkx {iso}")
    for p in factorint(lvl):
        if facts.rank(p) == n - 1 and multiplicity(p, lvl) > multiplicity(p, facts.det) // 2:
            errs.append(f"{tag}: v_{p}(l) = {multiplicity(p, lvl)} exceeds "
                        f"floor(v_{p}(det W)/2) = {multiplicity(p, facts.det) // 2}")
    return errs


def _nx_graph(adj: list[list[int]]) -> nx.Graph:
    g = nx.empty_graph(len(adj))
    g.add_edges_from((i, j) for i, row in enumerate(adj) for j, x in enumerate(row) if x)
    return g


def check_lemmas(lemma_checks: list[dict]) -> list[str]:
    return [f"lemma check {i} at p={c['prime']} not all_ok: {c['notes']}"
            for i, c in enumerate(lemma_checks) if not c["all_ok"]]


def fixture_matrices() -> dict[int, list[list[int]]]:
    """The checksummed level-3 and level-9 fixture matrices, verified here."""
    manifest = json.loads((FIXTURE_DIR / "MANIFEST.json").read_text())
    out = {}
    for lvl in (3, 9):
        name = f"g10_qhat_level{lvl}.txt"
        text = (FIXTURE_DIR / name).read_text()
        if hashlib.sha256(text.encode()).hexdigest() != manifest[name]:
            raise ValueError(f"fixture {name} does not match its checksum")
        out[lvl] = parse_matrix(text)
    return out


def _columns(q: list[list[int]]) -> list[tuple[int, ...]]:
    return sorted(zip(*q))


# ---------------------------------------------------------------------------
# per workload
# ---------------------------------------------------------------------------


def check_sweep(slot: int, rec: dict) -> list[str]:
    if rec.get("index") != slot or rec.get("exhausted"):
        return [f"slot {slot}: record {rec.get('index')} exhausted={rec.get('exhausted')}"]
    facts = Facts(decode_graph6(rec["graph6"]))
    errs = check_profile(facts, rec["profile"], complete=True)
    errs += check_bounds(facts, rec["profile"], rec["bounds"])
    search = rec.get("search")
    if search:
        for cls in search["classes"]:
            errs += check_class(facts, cls)
        errs += check_lemmas(rec.get("lemma_checks", []))
    return errs


def check_profile_large(adj: list[list[int]], rec: dict, primes) -> list[str]:
    errs = check_profile(Facts(adj), rec, complete=False)
    if sorted(int(p) for p in rec["primes"]) != sorted(primes):
        errs.append(f"primes {sorted(rec['primes'])} != requested {sorted(primes)}")
    return errs


def check_mates(src: dict, rec: dict) -> list[str]:
    if rec["code"] != 0:
        return [f"walklevel mates exited {rec['code']}"]
    out = json.loads(rec["stdout"])
    adj = parse_matrix(src["text"]) if src["fixture"] else decode_graph6(src["g6"])
    if decode_graph6(out["graph6"]) != adj:
        return ["reported graph6 is not the input graph"]
    facts = Facts(adj)
    errs = check_profile(facts, out["profile"], complete=True)
    errs += check_bounds(facts, out["profile"], out["bounds"])
    if out["levels_searched"] != src["levels"]:
        errs.append(f"levels searched {out['levels_searched']} != {src['levels']}")
    for cls in out["classes"]:
        errs += check_class(facts, cls)
    errs += check_lemmas(out["lemma_checks"])
    if src["fixture"]:
        want = fixture_matrices()
        got = {cls["level"]: _columns(cls["qhat"]) for cls in out["classes"]}
        if len(out["classes"]) != 2 or got != {lvl: _columns(q) for lvl, q in want.items()}:
            errs.append("fixture classes are not exactly the checksummed level 3 and 9 matrices")
    elif not out["classes"]:
        errs.append("no class found at levels where the sweep found one")
    return errs
