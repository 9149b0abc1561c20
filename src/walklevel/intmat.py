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

    The steps go in rounds of up to three (Bareiss's multistep method):
    one pass over the trailing block for each round. A round from T_k takes
    its first pivot as above, and the next ones by the same rule in column
    k+1 of T_(k+1) and column k+2 of T_(k+2), computing only the entries
    its scan reads; it takes fewer where a pivot would need the whole-block
    scan, and it never steps past T_(n-2). Then ``_eliminate`` builds the
    other rows of T_(k+s) from T_k at once, dividing by D_k alone.

    One step before the end the trailing 2x2 block (before that step's
    swaps, which keep its gcd) holds four (n-1)-minors; their gcd h is a
    multiple of d_1...d_(n-1) (for n = 1 it is the empty minor, 1), and so
    is M = gcd(|det a|, h). Modulo the odd part m of M a D_k prime to m is
    a unit, so a is equivalent to I_k (+) T_k over Z/mZ. Every round
    builds new rows, so each round keeps the rows of the T_k it starts
    from, by reference and in the order its pivots left them; the result
    carries the block of the largest k with gcd(D_k, m) = 1, rebuilt by
    single steps from its round's rows when k falls inside a round, or
    k = 0 and ``rows`` itself when no pivot is prime to m. A singular a
    gives (0, 0, 0, rows, ()).
    """
    n = len(rows)
    if n == 0:
        return 1, 1, 0, rows, ()
    m = [list(row) for row in rows]  # T_k, indexed from its own corner
    sign = 1
    dets = [1]  # D_0, D_1, ...
    v_prev = 0  # v_2 of the last pivot
    floor = 0  # v_2 of the last pivot + its local valuation: no entry is below it
    h = 1
    twos = []
    rounds = []  # (k, the rows of T_k, the round's pivots first)
    k = 0
    while k < n - 1:
        prev = dets[k]
        if k == n - 2:
            h = gcd(m[0][0], m[0][1], m[1][0], m[1][1])
        bit = 1 << floor
        for i, row in enumerate(m):
            if row[0] & bit:
                v_pivot = floor
                break
        else:
            if not any(row[0] for row in m):
                return 0, 0, 0, rows, ()
            i, j, v_pivot = _least_valuation(m, floor)
            if j:
                for row in m:
                    row[0], row[j] = row[j], row[0]
                sign = -sign
        if i:
            m[0], m[i] = m[i], m[0]
            sign = -sign
        p0 = m[0]
        pivot = p0[0]
        # at most three pivots, and no round steps past T_(n-2), whose 2x2
        # block gives h
        top = n - 2 - k
        if top > 3:
            top = 3
        elif top < 1:
            top = 1
        s = 1
        while True:
            dets.append(pivot)
            twos.append(v_pivot - v_prev)
            v_prev, floor = v_pivot, 2 * v_pivot - v_prev
            if s == top:
                break
            # the next pivot: the first entry of column s of T_(k+s) that
            # meets the floor, computed row by row as the scan reads it
            bit = 1 << floor
            if s == 1:
                b = p0[1]
                for i in range(1, len(m)):
                    row = m[i]
                    y = (pivot * row[1] - row[0] * b) // prev
                    if y & bit:
                        break
                else:
                    break
            else:
                (a, b, c), (e, f, g) = p0[:3], m[1][:3]
                for i in range(2, len(m)):
                    x0, x1, x2 = m[i][:3]
                    y = (pivot * x2 - (x0 * f - x1 * e) // prev * c
                         - (x1 * a - x0 * b) // prev * g) // prev
                    if y & bit:
                        break
                else:
                    break
            if i != s:
                m[s], m[i] = m[i], m[s]
                sign = -sign
            pivot = y
            v_pivot = floor
            s += 1
        rounds.append((k, m))
        m = _eliminate(m, s, prev, pivot)
        k += s
    rounds.append((n - 1, m))  # T_(n-1) = (D_n), up to sign
    d = sign * m[0][0]
    if not d:
        return 0, 0, 0, rows, ()
    modulus = gcd(d, h)
    odd = _odd_part(modulus)
    for k in range(n - 1, 0, -1):
        if gcd(dets[k], odd) == 1:
            break
    else:
        return d, modulus, 0, rows, tuple(twos)
    for start, block in reversed(rounds):
        if start <= k:
            break
    for u in range(start, k):
        block = _eliminate(block, 1, dets[u], dets[u + 1])
    return d, modulus, k, block, tuple(twos)


def _eliminate(block: list[list[int]], s: int, prev: int, pivot: int) -> list[list[int]]:
    """The rows of T_(k+s), built from the rows ``block`` of T_k, s being 1,
    2 or 3: the first s rows of T_k are the pivot rows P_t, its leading
    s x s block B holds the pivots, prev = D_k and pivot = D_(k+s).

    By Sylvester's identity an entry of T_(k+s) is the (s+1)-minor of T_k
    that borders B with its row i and column j, divided by D_k^s. Expanded
    along column j that minor is det(B) x_ij - sum_t c_it P_t[j], with
    det(B) = D_k^(s-1) D_(k+s) and c_i = (x_i0, ..., x_i(s-1)) adj(B).
    Every s-minor of T_k, and so every c_it, is a multiple of D_k^(s-1),
    so w_it = c_it / D_k^(s-1) is exact, and the new entry is
    (D_(k+s) x_ij - sum_t w_it P_t[j]) / D_k, one division by D_k. For
    s = 1, w_i0 = x_i0; for s >= 2 every (s-1)-minor of T_k, and so every
    entry of adj(B), is a multiple of D_k^(s-2), which is divided out of
    adj(B) first. For s < 3 the missing w_it are 0.
    """
    p0 = block[0]
    p1 = block[1] if s > 1 else p0
    p2 = block[2] if s > 2 else p0
    w1 = w2 = 0
    # (x_u0, ..., x_u(s-1)) is column u of adj(B) / D_k^(s-2)
    if s == 3:
        a0, a1, a2 = p0[:3]
        b0, b1, b2 = p1[:3]
        c0, c1, c2 = p2[:3]
        x00, x01, x02 = ((b1 * c2 - b2 * c1) // prev, (b2 * c0 - b0 * c2) // prev,
                         (b0 * c1 - b1 * c0) // prev)
        x10, x11, x12 = ((a2 * c1 - a1 * c2) // prev, (a0 * c2 - a2 * c0) // prev,
                         (a1 * c0 - a0 * c1) // prev)
        x20, x21, x22 = ((a1 * b2 - a2 * b1) // prev, (a2 * b0 - a0 * b2) // prev,
                         (a0 * b1 - a1 * b0) // prev)
    elif s == 2:
        (x11, x10), (x01, x00) = p0[:2], p1[:2]
        x01, x10 = -x01, -x10
    q0, q1, q2 = p0[s:], p1[s:], p2[s:]
    cols = range(len(block) - s)
    out = []
    for row in block[s:]:
        if s == 3:
            e0, e1, e2 = row[:3]
            w0 = (e0 * x00 + e1 * x01 + e2 * x02) // prev
            w1 = (e0 * x10 + e1 * x11 + e2 * x12) // prev
            w2 = (e0 * x20 + e1 * x21 + e2 * x22) // prev
        elif s == 2:
            e0, e1 = row[:2]
            w0 = (e0 * x00 + e1 * x01) // prev
            w1 = (e0 * x10 + e1 * x11) // prev
        else:
            w0 = row[0]
        row = row[s:]
        for j in cols:
            row[j] = (pivot * row[j] - w0 * q0[j] - w1 * q1[j] - w2 * q2[j]) // prev
        out.append(row)
    return out


def _least_valuation(m: list[list[int]], floor: int) -> tuple[int, int, int]:
    """(i, j, v_2(m[i][j])) for an entry of least 2-adic valuation in the
    square block m, which must not be zero.

    Columns are scanned in order, each from the top row down, so column 0
    wins a tie; an entry of valuation ``floor``, the least possible, ends
    the scan.
    """
    best = None
    for j in range(len(m)):
        for i in range(len(m)):
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
