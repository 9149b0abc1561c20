"""Rational regular orthogonal matrices stored exactly.

A RatRegOrtho holds the integer matrix num = l*Q together with the positive
denominator l, kept in lowest terms, so the denominator IS the level of Q.
Orthogonality (num^T num = l^2 I) and regularity (row and column sums all
equal l) are enforced at construction; nothing downstream needs to re-check
them.

Matrices come from the mate search and the bundled fixtures, and
``conjugate`` carries a graph G to its mate H = Q^T A(G) Q. For a
controllable G this Q is the only one: num^T W(G) = l W(H) with W(G)
nonsingular pins it down, so nothing rebuilds Q from the pair (G, H).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul

from .errors import ConjugationError
from .graphs import Graph
from .intmat import IntMatrix, content


@dataclass(frozen=True)
class RatRegOrtho:
    """Q = num / den, checked at construction to be rational, regular and
    orthogonal with den its level.

    The checks run in this order, each raising ValueError: num is square,
    den > 0, gcd(num, den) = 1, num^T num = den^2 I, and every row and
    column of num sums to den. Orthogonality is read off the columns c_i of
    num (c_i . c_i = den^2 and c_i . c_j = 0 for i < j), so no product
    matrix is built.
    """

    num: IntMatrix
    den: int

    def __post_init__(self):
        num, den = self.num, self.den
        if not num.is_square:
            raise ValueError("matrix must be square")
        if den <= 0:
            raise ValueError("denominator must be positive")
        if content(num, den) != 1:
            raise ValueError("entries and denominator are not in lowest terms")
        cols = num.T.data
        l2 = den * den
        for i, ci in enumerate(cols):
            if sum(map(mul, ci, ci)) != l2 or any(
                    sum(map(mul, ci, cj)) for cj in cols[i + 1:]):
                raise ValueError("matrix is not orthogonal after scaling")
        if any(sum(row) != den for row in num.data) or any(sum(c) != den for c in cols):
            raise ValueError("matrix is not regular (row/column sums differ from den)")

    @property
    def n(self) -> int:
        return self.num.rows

    @property
    def level(self) -> int:
        return self.den

    def canonical_key(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(level, columns of num sorted lex): constant on {Q P : P permutation}."""
        return self.den, tuple(sorted(self.num.T.data))


def conjugate(q: RatRegOrtho, g: Graph) -> Graph:
    """The graph H with A(H) = Q^T A(G) Q, refusing any non-0-1 result.

    Exact equality only: num^T A num must be den^2 times a symmetric 0-1
    matrix with zero diagonal, otherwise Q is not in the admissible set of G.
    Entry (i, j) of num^T A num is (A c_i) . c_j for the columns c_i of num,
    with A c_i summed over g's adjacency rows. That matrix is symmetric, so
    only j >= i is computed and mirrored: the first entry outside
    {0, den^2} in row-major order lies there, and its error is raised.
    The result is still validated by ``Graph``. A diagonal entry den^2
    never reaches it: Q is orthogonal, so the trace is trace(A) = 0, and a
    positive diagonal entry comes with a negative one, which the scan names.
    """
    if q.n != g.n:
        raise ValueError("size mismatch between matrix and graph")
    cols = q.num.T.data
    d2 = q.den * q.den
    n = g.n
    adj = [[0] * n for _ in range(n)]
    for i, ci in enumerate(cols):
        aci = [sum(compress(ci, row)) for row in g.adj]
        for j in range(i, n):
            x = sum(map(mul, aci, cols[j]))
            if x == d2:
                adj[i][j] = adj[j][i] = 1
            elif x != 0:
                raise ConjugationError(
                    f"conjugated entry ({i},{j}) is {x}, not in {{0, {d2}}}; "
                    "the matrix does not carry this graph to a graph"
                )
    try:
        return Graph(tuple(map(tuple, adj)))
    except ValueError as exc:
        raise ConjugationError(f"conjugated matrix is not an adjacency matrix: {exc}") from exc
