"""Dense matrices of arbitrary-precision integers.

Everything is exact: entries are Python ints, so no overflow is possible and
no tolerance appears anywhere. Matrices are immutable values; every
operation returns a fresh matrix, which makes them freely shareable across
threads.

Vectors are plain tuples of ints throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(int, row)) for row in self.data)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("rows have unequal lengths")
        object.__setattr__(self, "data", rows)

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def diag(cls, entries: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        r = rows if rows is not None else len(entries)
        c = cols if cols is not None else len(entries)
        data = [[0] * c for _ in range(r)]
        for i, x in enumerate(entries[:min(r, c)]):
            data[i][i] = x
        return cls(data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(zip(*columns, strict=True)))

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def entries(self) -> tuple[int, ...]:
        """All entries in row-major order."""
        return tuple(x for row in self.data for x in row)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.data[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in row) for row in self.data))

    def __mul__(self, c: int) -> "IntMatrix":
        if not isinstance(c, int):
            return NotImplemented
        return IntMatrix(tuple(tuple(c * a for a in row) for row in self.data))

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bt = other.transpose().data
        return IntMatrix(tuple(
            tuple(sum(map(mul, row, col)) for col in bt)
            for row in self.data
        ))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.data))) if self.data else IntMatrix(())

    @property
    def T(self) -> "IntMatrix":
        return self.transpose()

    def mat_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, row, v)) for row in self.data)

    def map(self, f: Callable[[int], int]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(f(a) for a in row) for row in self.data))

    def mod(self, m: int) -> "IntMatrix":
        return self.map(lambda a: a % m)

    # -- block operations ----------------------------------------------------

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "IntMatrix":
        cj = tuple(col_idx)
        return IntMatrix(tuple(tuple(self.data[i][j] for j in cj) for i in row_idx))

    def minor(self, i: int, j: int) -> "IntMatrix":
        return self.submatrix(
            (r for r in range(self.rows) if r != i),
            (c for c in range(self.cols) if c != j),
        )

    def _same_shape(self, other: "IntMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"IntMatrix[{self.rows}x{self.cols}: {body}]"


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients lowest degree first.

    The zero polynomial is the empty tuple; otherwise the leading coefficient
    is nonzero.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "IntPoly(" + " + ".join(terms) + ")"


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return sum(map(mul, u, v))


def det(a: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination (``_bareiss``)."""
    if not a.is_square:
        raise ValueError("determinant of a non-square matrix")
    return _bareiss(a.data)[0]


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int, int, Sequence[Sequence[int]]]:
    """(det a, M, k, T_k) from one Bareiss fraction-free elimination of the
    rows of a square integer matrix a, which it does not modify; the tuple
    is for ``snf._factors_from_block``.

    Intermediate values stay polynomial-sized; every division is exact.
    After k steps the pivot D_k is the leading k-minor of the row-permuted
    matrix P*a, and by Sylvester's identity every entry of the trailing
    block T_k = D_k * S_k is a (k+1)-minor of P*a, S_k being the Schur
    complement of that leading block. One step before the end the trailing
    2x2 block thus holds four (n-1)-minors; their gcd h is a multiple of
    d_1...d_(n-1) (for n = 1 it is the empty minor, 1), and so is
    M = gcd(|det a|, h). Modulo M a D_k prime to M is a unit, so a is
    equivalent to I_k (+) T_k over Z/MZ. Each step keeps D_k and a copy of
    T_k; the result carries the block of the largest k with
    gcd(D_k, M) = 1, or k = 0 and ``rows`` itself when no pivot is prime to
    M. A singular a gives (0, 0, 0, rows).
    """
    n = len(rows)
    if n == 0:
        return 1, 1, 0, rows
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    h = 1
    blocks = []
    for k in range(n - 1):
        if k == n - 2:
            h = gcd(m[k][k], m[k][k + 1], m[k + 1][k], m[k + 1][k + 1])
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, 0, 0, rows
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
        blocks.append((pivot, [row[k + 1:] for row in m[k + 1:]]))
    d = sign * m[n - 1][n - 1]
    if not d:
        return 0, 0, 0, rows
    modulus = gcd(d, h)
    for k in range(n - 1, 0, -1):
        pivot, block = blocks[k - 1]
        if gcd(pivot, modulus) == 1:
            return d, modulus, k, block
    return d, modulus, 0, rows


def adjugate(a: IntMatrix) -> IntMatrix:
    """Adjugate matrix: adj(A) = det(A) * A^{-1}, computed from cofactors."""
    if not a.is_square:
        raise ValueError("adjugate of a non-square matrix")
    n = a.rows
    if n == 0:
        return a
    if n == 1:
        return IntMatrix(((1,),))
    return IntMatrix(tuple(
        tuple((-1) ** (i + j) * det(a.minor(j, i)) for j in range(n))
        for i in range(n)
    ))


def char_poly(a: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(xI - A), exact and division-free.

    Uses the Berkowitz scheme: the coefficient vector of the k-th leading
    principal submatrix is a Toeplitz transform of the (k-1)-st, built from
    the closed-walk sums R (A_{k-1})^j C.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = a.rows
    rows = a.data
    prev = [1]  # coefficients, leading term first
    for k in range(1, n + 1):
        t = [1, -rows[k - 1][k - 1]]
        if k >= 2:
            r = rows[k - 1][:k - 1]
            w = [rows[i][k - 1] for i in range(k - 1)]
            for j in range(2, k + 1):
                t.append(-sum(r[i] * w[i] for i in range(k - 1)))
                if j < k:
                    w = [
                        sum(rows[i][x] * w[x] for x in range(k - 1))
                        for i in range(k - 1)
                    ]
        cur = [0] * (k + 1)
        for i in range(k + 1):
            acc = 0
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc += t[i - j] * prev[j]
            cur[i] = acc
        prev = cur
    return IntPoly(tuple(reversed(prev)))


def content(a: IntMatrix, *extra: int) -> int:
    """gcd of all entries (and any extra integers); 0 for an all-zero input."""
    g = 0
    for x in extra:
        g = gcd(g, x)
    for row in a.data:
        for x in row:
            g = gcd(g, x)
    return g
