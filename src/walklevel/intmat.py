"""Dense matrices of arbitrary-precision integers.

Everything is exact: entries are Python ints, so no overflow is possible and
no tolerance appears anywhere. Matrices are immutable values; every
operation returns a fresh matrix, which makes them freely shareable across
threads.

Vectors are plain tuples of ints throughout the library, and so is the
characteristic polynomial: ``char_poly`` returns its coefficients, lowest
degree first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index, mul
from typing import Iterable, Sequence


def _int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """``rows`` as a tuple of tuples of exact ints (bools become 0 and 1).

    An entry that is not an integer (a float, a string, a Fraction) raises
    ValueError naming its (row, column), where ``int()`` would have
    truncated or parsed it.
    """
    out = []
    for i, row in enumerate(rows):
        row = tuple(row)
        try:
            out.append(tuple(map(index, row)))
        except TypeError:
            for j, x in enumerate(row):
                try:
                    index(x)
                except TypeError:
                    raise ValueError(f"entry ({i},{j}) is {x!r}, not an integer") from None
            raise
    return tuple(out)


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix; ``data`` is its tuple of row tuples.

    The constructor normalizes: each row becomes a tuple of exact ints, a
    non-integral entry raises ValueError, and rows of unequal length are
    refused. The results of ``+``, ``-``, unary ``-``, scalar ``*``, ``@``,
    ``transpose`` and ``identity`` skip it (``_wrap``): they are built from
    the rows of normalized matrices, or from literal ints, by int arithmetic
    and ``zip``, so they are already tuples of equal-length tuples of exact
    ints.
    """

    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = _int_rows(self.data)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("rows have unequal lengths")
        object.__setattr__(self, "data", rows)

    @classmethod
    def _wrap(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """A matrix on ``rows`` as given, which must already be normalized."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", rows)
        return m

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._wrap(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

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

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._wrap(tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._wrap(tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._wrap(tuple(tuple(-a for a in row) for row in self.data))

    def __mul__(self, c: int) -> "IntMatrix":
        if not isinstance(c, int):
            return NotImplemented
        return IntMatrix._wrap(tuple(tuple(c * a for a in row) for row in self.data))

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bt = other.transpose().data
        return IntMatrix._wrap(tuple(
            tuple(sum(map(mul, row, col)) for col in bt)
            for row in self.data
        ))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._wrap(tuple(zip(*self.data)) if self.data else ())

    @property
    def T(self) -> "IntMatrix":
        return self.transpose()

    def mat_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, row, v)) for row in self.data)

    # -- block operations ----------------------------------------------------

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "IntMatrix":
        cj = tuple(col_idx)
        return IntMatrix(tuple(tuple(self.data[i][j] for j in cj) for i in row_idx))

    def _same_shape(self, other: "IntMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"IntMatrix[{self.rows}x{self.cols}: {body}]"


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return sum(map(mul, u, v))


def det(a: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination (``_bareiss``)."""
    if not a.is_square:
        raise ValueError("determinant of a non-square matrix")
    return _bareiss(a.data)[0]


def _odd_part(x: int) -> int:
    """Nonzero x with every factor 2 divided out (keeping its sign)."""
    return x >> (x & -x).bit_length() - 1


def _bareiss(
    rows: Sequence[Sequence[int]],
) -> tuple[int, int, int, Sequence[Sequence[int]], tuple[int, ...]]:
    """(det a, M, k, T_k, v) from one Bareiss fraction-free elimination of
    the rows of a square integer matrix a, which it does not modify; the
    tuple is for ``snf._factors_from_block``.

    Intermediate values stay polynomial-sized; every division is exact.
    Step k pivots on an entry of least 2-adic valuation in the trailing
    block, swapping its row up and, only when column k holds none, its
    column in. After k steps the pivot D_k is the leading k-minor of P*a*Q
    for the permutations P and Q so made, and by Sylvester's identity every
    entry of the trailing block T_k = D_k * S_k is a (k+1)-minor of P*a*Q,
    S_k being the Schur complement of that leading block. This is the
    local Smith algorithm over Z localized at 2: the valuations of the
    pivots of the S_k never decrease and are those of the invariant
    factors, so v = (v_2(d_1), ..., v_2(d_(n-1))) with
    v_2(d_i) = v_2(D_i) - v_2(D_(i-1)). They also make v_2(D_k) + v_2(d_k)
    a lower bound for the valuations in T_k, and an entry of column k that
    meets it needs no scan of the rest of the block.

    One step before the end the trailing 2x2 block (before that step's
    swaps, which keep its gcd) holds four (n-1)-minors; their gcd h is a
    multiple of d_1...d_(n-1) (for n = 1 it is the empty minor, 1), and so
    is M = gcd(|det a|, h). Modulo the odd part m of M a D_k prime to m is
    a unit, so a is equivalent to I_k (+) T_k over Z/mZ. Each step keeps
    D_k and a copy of T_k; the result carries the block of the largest k
    with gcd(D_k, m) = 1, or k = 0 and ``rows`` itself when no pivot is
    prime to m. A singular a gives (0, 0, 0, rows, ()).
    """
    n = len(rows)
    if n == 0:
        return 1, 1, 0, rows, ()
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    v_prev = 0  # v_2(prev)
    floor = 0  # v_2(prev) + the last pivot's local valuation: no entry is below it
    h = 1
    twos = []
    blocks = []
    for k in range(n - 1):
        if k == n - 2:
            h = gcd(m[k][k], m[k][k + 1], m[k + 1][k], m[k + 1][k + 1])
        bit = 1 << floor
        for i in range(k, n):
            if m[i][k] & bit:
                v_pivot = floor
                break
        else:
            if not any(m[i][k] for i in range(k, n)):
                return 0, 0, 0, rows, ()
            i, j, v_pivot = _least_valuation(m, k, floor)
            if j != k:
                for row in m[k:]:
                    row[k], row[j] = row[j], row[k]
                sign = -sign
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
        twos.append(v_pivot - v_prev)
        v_prev, floor = v_pivot, 2 * v_pivot - v_prev
        blocks.append((pivot, [row[k + 1:] for row in m[k + 1:]]))
    d = sign * m[n - 1][n - 1]
    if not d:
        return 0, 0, 0, rows, ()
    modulus = gcd(d, h)
    odd = _odd_part(modulus)
    for k in range(n - 1, 0, -1):
        pivot, block = blocks[k - 1]
        if gcd(pivot, odd) == 1:
            return d, modulus, k, block, tuple(twos)
    return d, modulus, 0, rows, tuple(twos)


def _least_valuation(m: list[list[int]], k: int, floor: int) -> tuple[int, int, int]:
    """(i, j, v_2(m[i][j])) for an entry of least 2-adic valuation in the
    trailing block of m from (k, k) on, which must not be zero.

    Columns are scanned in order from k, each from row k down, so column k
    wins a tie; an entry of valuation ``floor``, the least possible, ends
    the scan.
    """
    best = None
    for j in range(k, len(m)):
        for i in range(k, len(m)):
            x = m[i][j]
            if x:
                v = (x & -x).bit_length() - 1
                if best is None or v < best[2]:
                    best = i, j, v
                    if v == floor:
                        return best
    return best


def char_poly(a: IntMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - A), lowest degree first, exact and
    division-free; the last is 1, for x^n.

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
    return tuple(reversed(prev))


def content(a: IntMatrix, *extra: int) -> int:
    """gcd of all entries (and any extra integers); 0 for an all-zero input."""
    g = 0
    for x in extra:
        g = gcd(g, x)
    for row in a.data:
        for x in row:
            g = gcd(g, x)
    return g
