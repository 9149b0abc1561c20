"""Graphs, graph6 I/O, walk matrices, and spectral comparisons.

A Graph is an immutable symmetric 0-1 adjacency structure with zero
diagonal. graph6 strings are read and written in all three size forms, so
any order below 2^36 round-trips. The walk matrix stacks e, Ae, ...,
A^(n-1)e as columns; a graph is controllable when that matrix is
nonsingular. Profiles collect the exact invariants the bound rules consume:
det W, its Smith normal form, and per-prime valuations and ranks read off
that Smith form. A profile records its graph, so every later stage takes
the profile alone and reads G, W and n off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import index
from typing import Iterable, Mapping

from .arith import factorize, is_prime
from .errors import InvariantError, ParseError
from .intmat import IntMatrix, _int_rows, char_poly
from .snf import _det_and_factors, _factors_over_z

ISOMORPHISM_SIZE_LIMIT = 12


@dataclass(frozen=True)
class Graph:
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        adj = _int_rows(self.adj)
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
            try:
                u, v = index(u), index(v)
            except TypeError:
                raise ValueError(
                    f"edge ({u!r}, {v!r}) has a vertex that is not an integer") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside 0..{n - 1}")
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

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


# ---------------------------------------------------------------------------
# graph6 encoding: one size byte up to n = 62, '~' and 3 bytes up to
# n = 258,047, '~~' and 6 bytes below 2^36
# ---------------------------------------------------------------------------


def _sixes(chars: str):
    """The 6-bit values of graph6 bytes (each byte is 63 + value)."""
    for ch in chars:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ParseError(f"invalid graph6 byte {ch!r}")
        yield val


def _graph6_size(n: int) -> str:
    """The graph6 size field of n, in its shortest form."""
    if n <= 62:
        return chr(63 + n)
    if n >= 1 << 36:
        raise ValueError("graph6 supports n < 2^36 only")
    units = 3 if n <= 258047 else 6
    return "~" * (units // 3) + "".join(
        chr(63 + (n >> 6 * k & 63)) for k in reversed(range(units)))


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    start, stop = (0, 1) if s[0] != "~" else (1, 4) if s[1:2] != "~" else (2, 8)
    if len(s) < stop:
        raise ParseError(f"graph6 size field {s!r} is cut short")
    n = 0
    for val in _sixes(s[start:stop]):
        n = n << 6 | val
    if s[:stop] != _graph6_size(n):
        raise ParseError(f"graph6 size field {s[:stop]!r} is not the shortest form of n={n}")
    need = n * (n - 1) // 2
    nbytes = (need + 5) // 6
    body = s[stop:]
    if len(body) != nbytes:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {nbytes} for n={n}"
        )
    bits = []
    for val in _sixes(body):
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
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(g.adj[i][j])
    while len(bits) % 6:
        bits.append(0)
    out = [_graph6_size(n)]
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
    return IntMatrix(_walk_rows(g.adj))


def _walk_rows(adj: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """The rows of W = [e, Ae, ..., A^(n-1)e] for the 0-1 adjacency rows ``adj``."""
    if not adj:
        raise ValueError("graph must have at least one vertex")
    v = (1,) * len(adj)
    cols = [v]
    for _ in range(len(adj) - 1):
        v = tuple(map(sum, map(compress, repeat(v), adj)))
        cols.append(v)
    return list(zip(*cols))


@dataclass(frozen=True)
class WalkProfile:
    """Exact walk-matrix invariants of one graph.

    ``graph`` is the graph the profile was built from, and the stages after
    ``walk_profile`` read it from here. ``primes`` maps p to
    (v_p(|det W|), rank of W mod p), both read off ``invariant_factors``
    (the sum of v_p(d_i) and the count of d_i prime to p); it is empty for
    non-controllable graphs. ``normalized_det`` is det W divided by
    2^floor(n/2) (that power always divides det W; a violation would be an
    internal error, not a property of the input), or None when det W = 0.
    """

    graph: Graph
    W: IntMatrix
    det_w: int
    invariant_factors: tuple[int, ...]
    primes: Mapping[int, tuple[int, int]]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def controllable(self) -> bool:
        return self.det_w != 0

    @property
    def normalized_det(self) -> int | None:
        return self.det_w // (1 << (self.n // 2)) if self.det_w else None

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
    for primality (ValueError otherwise) but not factored; ``walk_profile(g, ())``
    factors nothing, for a caller that runs the later stages on g alone.

    The table is read off the invariant factors d_1 | ... | d_n: U W V = S
    with U, V unimodular, so v_p(det W) = sum of v_p(d_i) and
    rank_p W = #{i : p does not divide d_i}. No elimination mod p runs.
    A controllable graph takes the one path of ``invariant_factors``: one
    Bareiss pass gives det W, the 2-parts of d_1, ..., d_{n-1} off its
    pivots, and a trailing block T_k; only T_k is eliminated, modulo the odd
    part m of M = gcd(|det W|, h), and only when m > 1 (see ``snf``). A
    graph whose Bareiss pass finds det W = 0 gets the integer elimination
    alone.
    """
    rows = _walk_rows(g.adj)
    prof = _controllable_profile(g.adj, rows, primes, g)
    if prof is not None:
        return prof
    w = IntMatrix(rows)
    return WalkProfile(g, w, 0, _factors_over_z(w.data), {})


def _controllable_profile(adj, rows, primes: str | Iterable[int] = "auto",
                          g: Graph | None = None) -> WalkProfile | None:
    """walk_profile of the graph on the 0-1 rows ``adj``, whose W has the
    rows ``rows`` (``_walk_rows(adj)``), or None when det W = 0.

    Two equal walk rows make det W = 0, so such a graph is turned away
    before any Bareiss pass; otherwise one pass decides. ``g`` is that
    graph when the caller has one; otherwise ``Graph(adj)`` is built and
    validated only once det W != 0, so the sweep makes no Graph of a draw
    it rejects.
    """
    n = len(rows)
    if len(set(rows)) < n:
        return None
    d, factors = _det_and_factors(rows)
    if not d:
        return None

    half = n // 2
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
    return WalkProfile(Graph(adj) if g is None else g, IntMatrix(rows), d, factors,
                       {p: _row(factors, p) for p in plist})


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


def isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by color refinement plus backtracking.

    Meant for desk scale; raises for graphs above ``ISOMORPHISM_SIZE_LIMIT``
    vertices.
    """
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    n = g.n
    if n > ISOMORPHISM_SIZE_LIMIT:
        raise ValueError(f"isomorphism test limited to n <= {ISOMORPHISM_SIZE_LIMIT}")
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
