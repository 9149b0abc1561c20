"""Rational regular orthogonal matrices stored exactly.

A RatRegOrtho holds the integer matrix num = l*Q together with the positive
denominator l, kept in lowest terms, so the denominator IS the level of Q.
Orthogonality (num^T num = l^2 I) and regularity (row and column sums all
equal l) are enforced at construction; nothing downstream needs to re-check
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul

from .errors import ConjugationError
from .graphs import Graph, walk_matrix
from .intmat import IntMatrix, adjugate, content, det


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

    @classmethod
    def from_fraction(cls, num: IntMatrix, den: int) -> "RatRegOrtho":
        """Build from an unreduced (matrix, denominator) pair."""
        if den == 0:
            raise ValueError("denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = content(num, den)
        if g > 1:
            num = num.map(lambda x: x // g)
            den //= g
        return cls(num, den)

    @classmethod
    def identity(cls, n: int) -> "RatRegOrtho":
        return cls(IntMatrix.identity(n), 1)

    @classmethod
    def from_permutation(cls, perm: tuple[int, ...]) -> "RatRegOrtho":
        """The level-1 matrix carrying a graph to its relabeling v -> perm[v]
        (P[i, perm[i]] = 1, so P^T A P is the relabeled adjacency)."""
        n = len(perm)
        rows = [[0] * n for _ in range(n)]
        for i, j in enumerate(perm):
            rows[i][j] = 1
        return cls(IntMatrix(rows), 1)

    @property
    def n(self) -> int:
        return self.num.rows

    @property
    def level(self) -> int:
        return self.den

    def canonical_key(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(level, columns of num sorted lex): constant on {Q P : P permutation}."""
        return self.den, tuple(sorted(self.num.T.data))


def level(q: RatRegOrtho) -> int:
    """Smallest positive integer k such that k*Q is integral."""
    return q.den


def from_pair(g: Graph, h: Graph) -> RatRegOrtho:
    """The unique rational regular orthogonal Q with Q^T A(G) Q = A(H).

    Requires g controllable and the pair generalized cospectral; both are
    verified through the construction itself (transpose of
    W(H) W(G)^{-1}, computed exactly via the adjugate over one shared
    denominator, then post-checked).
    """
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    wg = walk_matrix(g)
    d = det(wg)
    if d == 0:
        raise ValueError("first graph is not controllable")
    wh = walk_matrix(h)
    numt = wh @ adjugate(wg)  # d * Q^T
    try:
        q = RatRegOrtho.from_fraction(numt.T, d)
    except ValueError as exc:
        raise ValueError(
            "graphs are not generalized cospectral (no regular orthogonal "
            f"similarity exists: {exc})"
        ) from exc
    # conjugation identity in exact arithmetic
    if q.num.T @ g.adjacency() @ q.num != (q.den * q.den) * h.adjacency():
        raise ValueError(
            "graphs are not generalized cospectral (conjugation identity fails)"
        )
    return q


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
