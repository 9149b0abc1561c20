"""Graphs, graph6 I/O, walk matrices, and spectral comparisons.

A Graph is an immutable symmetric 0-1 adjacency structure with zero
diagonal. The walk matrix stacks e, Ae, ..., A^(n-1)e as columns; a graph is
controllable when that matrix is nonsingular. Profiles collect the exact
invariants the bound rules consume: det W, its Smith normal form, and
per-prime valuations and ranks read off that Smith form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Iterable, Mapping

from .arith import factorize, is_prime
from .errors import InvariantError, ParseError
from .intmat import IntMatrix, _bareiss, char_poly
from .snf import _factors_from_block, invariant_factors

ISOMORPHISM_SIZE_LIMIT = 12


@dataclass(frozen=True)
class Graph:
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        adj = tuple(tuple(map(int, row)) for row in self.adj)
        n = len(adj)
        # a valid matrix passes these whole-matrix checks; the checks below
        # run only on an invalid one, to raise the error its first fault names
        # (any ragged row first, so the entry loop never indexes a short row)
        if (set(map(len, adj)) <= {n} and tuple(zip(*adj)) == adj
                and set(chain.from_iterable(adj)) <= {0, 1}
                and not any(map(tuple.__getitem__, adj, range(n)))):
            object.__setattr__(self, "adj", adj)
            return
        if any(len(row) != n for row in adj):
            raise ValueError("adjacency matrix is not square")
        for i, row in enumerate(adj):
            if row[i] != 0:
                raise ValueError("diagonal must be zero")
            for j, x in enumerate(row):
                if x not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                if x != adj[j][i]:
                    raise ValueError("adjacency matrix must be symmetric")
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [[0] * n for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            adj[u][v] = adj[v][u] = 1
        return cls(tuple(tuple(row) for row in adj))

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(sum(row) for row in self.adj) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, x in enumerate(self.adj[v]) if x)

    def adjacency(self) -> IntMatrix:
        return IntMatrix(self.adj)

    def complement(self) -> "Graph":
        n = self.n
        return Graph(tuple(
            tuple(0 if i == j else 1 - self.adj[i][j] for j in range(n))
            for i in range(n)
        ))

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Image under the vertex map v -> perm[v]."""
        n = self.n
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                adj[perm[i]][perm[j]] = self.adj[i][j]
        return Graph(tuple(tuple(row) for row in adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


# ---------------------------------------------------------------------------
# graph6 encoding (short form, n <= 62)
# ---------------------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    n = ord(s[0]) - 63
    if not 0 <= n <= 62:
        raise ParseError(f"unsupported graph6 order byte {s[0]!r} (short form only)")
    need = n * (n - 1) // 2
    nbytes = (need + 5) // 6
    body = s[1:]
    if len(body) != nbytes:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {nbytes} for n={n}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ParseError(f"invalid graph6 byte {ch!r}")
        bits.extend((val >> (5 - t)) & 1 for t in range(6))
    if any(bits[need:]):
        raise ParseError("nonzero padding bits")
    adj = [[0] * n for _ in range(n)]
    idx = 0
    for j in range(1, n):
        for i in range(j):
            adj[i][j] = adj[j][i] = bits[idx]
            idx += 1
    return Graph(tuple(tuple(row) for row in adj))


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n > 62:
        raise ValueError("short-form graph6 supports n <= 62 only")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(g.adj[i][j])
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for t in range(0, len(bits), 6):
        b = 0
        for bit in bits[t:t + 6]:
            b = (b << 1) | bit
        out.append(chr(63 + b))
    return "".join(out)


# ---------------------------------------------------------------------------
# Walk matrix and per-prime profile
# ---------------------------------------------------------------------------


def walk_matrix(g: Graph) -> IntMatrix:
    """[e, Ae, ..., A^(n-1)e] as columns; A v sums v over each vertex's neighbours."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    return IntMatrix(_walk_rows(g.adj))


def _walk_rows(adj: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """The rows of W = [e, Ae, ..., A^(n-1)e] for the 0-1 adjacency rows ``adj``."""
    v = (1,) * len(adj)
    cols = [v]
    for _ in range(len(adj) - 1):
        v = tuple(map(sum, map(compress, repeat(v), adj)))
        cols.append(v)
    return list(zip(*cols))


@dataclass(frozen=True)
class WalkProfile:
    """Exact walk-matrix invariants of one graph.

    ``primes`` maps p to (v_p(|det W|), rank of W mod p), both read off
    ``invariant_factors`` (the sum of v_p(d_i) and the count of d_i prime
    to p); it is empty for non-controllable graphs. ``normalized_det`` is
    det W divided by 2^floor(n/2) (that power always divides det W; a
    violation would be an internal error, not a property of the input).
    """

    n: int
    W: IntMatrix
    det_w: int
    controllable: bool
    invariant_factors: tuple[int, ...]
    normalized_det: int | None
    primes: Mapping[int, tuple[int, int]]

    @property
    def d_n(self) -> int:
        return self.invariant_factors[-1] if len(self.invariant_factors) == self.n else 0

    def valuation(self, p: int) -> int:
        return self.primes[p][0]

    def rank_p(self, p: int) -> int:
        return self.primes[p][1]

    def odd_primes(self) -> tuple[int, ...]:
        return tuple(sorted(p for p in self.primes if p != 2))

    def factor(self, m: int) -> dict[int, int]:
        """{p: v_p(m)} for a nonzero divisor m of det W, read off the prime table.

        Raises ValueError when the table's primes leave a cofactor of |m|,
        as a table built from an explicit prime list may.
        """
        rest = abs(m)
        out: dict[int, int] = {}
        for p in self.primes:
            while rest and rest % p == 0:
                rest //= p
                out[p] = out.get(p, 0) + 1
        if rest != 1:
            raise ValueError(f"the prime table {sorted(self.primes)} leaves "
                             f"the cofactor {rest} of {m}")
        return out

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "det_w": self.det_w,
            "controllable": self.controllable,
            "invariant_factors": list(self.invariant_factors),
            "normalized_det": self.normalized_det,
            "primes": {
                str(p): {"valuation": v, "rank": r}
                for p, (v, r) in sorted(self.primes.items())
            },
        }


def walk_profile(g: Graph, primes: str | Iterable[int] = "auto") -> WalkProfile:
    """Full profile: W, det, invariant factors, per-prime valuations/ranks.

    With primes="auto" the odd primes are found by factoring the normalized
    determinant (trial division then rho; an exhausted rho budget raises
    FactorizationError naming the unfactored part). This is the only
    factoring of the per-graph analysis: every later stage reads the
    table through ``WalkProfile.factor``. An explicit prime list is checked
    for primality (ValueError otherwise) but not factored.

    The table is read off the invariant factors d_1 | ... | d_n: U W V = S
    with U, V unimodular, so v_p(det W) = sum of v_p(d_i) and
    rank_p W = #{i : p does not divide d_i}. No elimination mod p runs.
    One Bareiss pass gives det W, the gcd h of four (n-1)-minors and a
    trailing block T_k with W equivalent to I_k (+) T_k modulo
    M = gcd(|det W|, h); only T_k is then eliminated modulo M.
    """
    w = walk_matrix(g)
    return _profile(g, w, _bareiss(w.data), primes)


def _profile(
    g: Graph, w: IntMatrix, elimination: tuple, primes: str | Iterable[int] = "auto"
) -> WalkProfile:
    """walk_profile for a caller that already holds W = walk_matrix(g) and
    ``elimination`` = intmat._bareiss(W's rows): (det W, h, k, T_k)."""
    d, h, k, block = elimination
    if d == 0:
        return WalkProfile(g.n, w, 0, False, invariant_factors(w), None, {})
    factors = _factors_from_block(d, h, k, block)

    half = g.n // 2
    if d % (1 << half):
        raise InvariantError(
            "2^floor(n/2) does not divide det W; this contradicts a known "
            "background fact and indicates a bug"
        )
    nd = d // (1 << half)

    if primes == "auto":
        plist = sorted({2} | {p for p in factorize(nd) if p != 2})
    else:
        plist = sorted(set(int(p) for p in primes))
        for p in plist:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
    return WalkProfile(g.n, w, d, True, factors, nd, {p: _row(factors, p) for p in plist})


def _row(factors: tuple[int, ...], p: int) -> tuple[int, int]:
    """(sum of v_p(d_i), #{i : p does not divide d_i}) for a prime p."""
    valuation = rank = 0
    for f in factors:
        if f % p:
            rank += 1
            continue
        while f % p == 0:
            f //= p
            valuation += 1
    return valuation, rank


# ---------------------------------------------------------------------------
# Cospectrality and isomorphism
# ---------------------------------------------------------------------------


def generalized_cospectral(g: Graph, h: Graph) -> bool:
    """Equal characteristic polynomials for both the graphs and complements."""
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    if char_poly(g.adjacency()) != char_poly(h.adjacency()):
        return False
    return char_poly(g.complement().adjacency()) == char_poly(h.complement().adjacency())


def _refine_colors(g: Graph, colors: list[int]) -> list[int]:
    n = g.n
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
            for v in range(n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def isomorphic(g: Graph, h: Graph, size_limit: int = ISOMORPHISM_SIZE_LIMIT) -> bool:
    """Exact isomorphism test by color refinement plus backtracking.

    Meant for desk scale; raises for graphs above ``size_limit`` vertices.
    """
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    n = g.n
    if n > size_limit:
        raise ValueError(f"isomorphism test limited to n <= {size_limit}")
    if g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False

    cg = _refine_colors(g, [0] * n)
    ch = _refine_colors(h, [0] * n)
    if sorted(cg) != sorted(ch):
        return False

    # match vertices of g (rarest color class first) to same-colored h vertices
    order = sorted(range(n), key=lambda v: (cg.count(cg[v]), cg[v], v))
    mapping = [-1] * n
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for u in range(n):
            if used[u] or ch[u] != cg[v]:
                continue
            ok = True
            for w in order[:idx]:
                if g.adj[v][w] != h.adj[u][mapping[w]]:
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used[u] = True
                if extend(idx + 1):
                    return True
                used[u] = False
                mapping[v] = -1
        return False

    return extend(0)
