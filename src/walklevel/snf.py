"""Smith normal forms over Z and over Z/p^kZ, with or without transforms.

``snf_int`` and ``snf_mod_pk`` return the full (U, S, V) triple with
U*M*V = S in the stated ring. Over Z the transforms are unimodular; over
Z/p^kZ their determinants are units, and every nonzero invariant factor is
normalized to a pure prime power p^c with 0 <= c < k.

One modular elimination, ``_diagonal_mod`` over Z/dZ, serves
``snf_mod_pk`` (with U and V), the invariant factors (without), and
``dn_test`` and ``matesearch.enumerate_columns`` (with V alone). The
integer elimination runs only in ``snf_int``, for ``walklevel snf``, and
in ``_factors_over_z``, the invariant factors of a singular, non-square or
empty matrix. A nonempty square matrix takes one path,
``_det_and_factors``, shared by ``invariant_factors`` and ``walk_profile``:
one ``intmat._bareiss`` pass gives det, a modulus M = gcd(|det|, h) with h
a gcd of (n-1)-minors, and a trailing block T_k such that the matrix is
I_k (+) T_k over Z/MZ (k >= 1 on walk matrices, whose first pivot is 1).
``_factors_from_block`` eliminates T_k alone modulo M. M is a multiple of
d_1...d_{n-1}, so this gives d_1, ..., d_{n-1} exactly, and d_n is
recomputed as |det| / (d_1...d_{n-1}). Since U and V are unimodular, the
rank of a matrix mod p is the number of its invariant factors prime to p,
and v_p(det) is the sum of their valuations: ``walk_profile`` reads its
prime table that way. ``rank_mod_p`` (a plain GF(p) elimination) has no
caller in the pipeline; it stays public because the tests use it as an
oracle and the benchmark's span list names it.

On top of the forms sit the module-theoretic helpers: solvability of
M x = b over Z/p^kZ, kernel structure, the "does M z = 0 have a unit-entry
solution mod p^k" test, and basis extension inside free submodules. Three
private readers take one decomposition U M V = S over Z/p^kZ: ``_solve``
(M x = b through U and S), ``_kernel`` (ker M off S and V) and
``_augmented_factors`` (the factors of [M | b] as those of [S | U b]).
``verify_proof_lemmas`` makes one such decomposition per witness; its
factors gcd(f_i, p^k) of the factors f_i over Z also decide the shape over Z.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gcd, prod

from .arith import is_prime, v_p
from .errors import InvariantError
from .intmat import IntMatrix, _bareiss


@dataclass(frozen=True)
class ModPK:
    """Ring tag for Z/p^kZ."""

    p: int
    k: int

    @property
    def modulus(self) -> int:
        return self.p ** self.k

    def __repr__(self):
        return f"Z/{self.p}^{self.k}Z"


@dataclass(frozen=True)
class SnfResult:
    """U @ M @ V == S, with S in Smith normal form.

    ``ring`` is None for Z, or a ModPK tag. ``invariant_factors`` lists the
    nonzero diagonal entries d_1 | d_2 | ... | d_r.
    """

    ring: ModPK | None
    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


@dataclass(frozen=True)
class KernelShape:
    """Kernel of M over Z/p^kZ as a direct sum of cyclic modules.

    ker(M) decomposes as  (+)_i Z/p^{c_i}Z  (+)  (Z/p^kZ)^{free_rank},
    with c_i the nonzero exponents among the invariant factors. When the
    kernel is free (no torsion), ``free_basis`` holds an explicit basis.
    """

    torsion_exponents: tuple[int, ...]
    free_rank: int
    modulus: int
    free_basis: tuple[tuple[int, ...], ...] | None

    @property
    def size(self) -> int:
        total = self.modulus ** self.free_rank
        p = _prime_of_modulus(self.modulus)
        for c in self.torsion_exponents:
            total *= p ** c
        return total


def _prime_of_modulus(q: int) -> int:
    for p in range(2, q + 1):
        if q % p == 0:
            return p
    raise ValueError("modulus must be a prime power > 1")


# ---------------------------------------------------------------------------
# SNF over Z
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _row_sub(m, dst, src, q):
    if q:
        src_row = m[src]
        dst_row = m[dst]
        for j in range(len(dst_row)):
            dst_row[j] -= q * src_row[j]


def _col_sub(m, dst, src, q):
    if q:
        for row in m:
            row[dst] -= q * row[src]


def _row_add(m, dst, src):
    src_row = m[src]
    dst_row = m[dst]
    for j in range(len(dst_row)):
        dst_row[j] += src_row[j]


def _neg_row(m, i):
    m[i] = [-x for x in m[i]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _gcdex_rows(s, a_mats, t, i):
    """Unimodular 2-row transform making s[i][t] = 0, s[t][t] = gcd.

    Applied to s and, identically, to every matrix in a_mats.
    """
    a, b = s[t][t], s[i][t]
    if b == 0:
        return
    if a and b % a == 0:
        q = b // a
        for m in (s, *a_mats):
            _row_sub(m, i, t, q)
        return
    g, x, y = _xgcd(a, b)
    af, bf = a // g, b // g
    for m in (s, *a_mats):
        rt, ri = m[t], m[i]
        m[t] = [x * p + y * q for p, q in zip(rt, ri)]
        m[i] = [-bf * p + af * q for p, q in zip(rt, ri)]


def _gcdex_cols(s, a_mats, t, j):
    """Column analogue of _gcdex_rows: zero s[t][j], gcd into s[t][t]."""
    a, b = s[t][t], s[t][j]
    if b == 0:
        return
    if a and b % a == 0:
        q = b // a
        for m in (s, *a_mats):
            _col_sub(m, j, t, q)
        return
    g, x, y = _xgcd(a, b)
    af, bf = a // g, b // g
    for m in (s, *a_mats):
        for row in m:
            p, q = row[t], row[j]
            row[t] = x * p + y * q
            row[j] = -bf * p + af * q


def _smith_int(s, us, vs) -> int:
    """Reduce s in place to Smith normal form over Z; return its rank.

    Every row operation is also applied to each matrix in ``us`` and every
    column operation to each matrix in ``vs``, so passing () for both
    computes S alone.
    """
    nr, nc = len(s), len(s[0]) if s else 0
    t = 0
    limit = min(nr, nc)
    while t < limit:
        # smallest nonzero |entry| in the trailing block
        piv = None
        best = None
        for i in range(t, nr):
            row = s[i]
            for j in range(t, nc):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            for m in (s, *us):
                _swap_rows(m, t, piv[0])
        if piv[1] != t:
            for m in (s, *vs):
                _swap_cols(m, t, piv[1])

        # alternate gcd-clearing passes; each dirty pass strictly divides
        # the pivot down, so this stabilizes after O(log) rounds
        while True:
            for i in range(t + 1, nr):
                _gcdex_rows(s, us, t, i)
            if all(s[t][j] == 0 for j in range(t + 1, nc)):
                break
            for j in range(t + 1, nc):
                _gcdex_cols(s, vs, t, j)
            if all(s[i][t] == 0 for i in range(t + 1, nr)):
                break

        # pivot must divide the whole trailing block
        pivot = s[t][t]
        offender = None
        for i in range(t + 1, nr):
            row = s[i]
            for j in range(t + 1, nc):
                if row[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for m in (s, *us):
                _row_add(m, t, offender)
            continue  # re-reduce with the same slot t

        if pivot < 0:
            for m in (s, *us):
                _neg_row(m, t)
        t += 1
    return t


def snf_int(m: IntMatrix) -> SnfResult:
    """Smith normal form over Z with unimodular transforms.

    Pivoting picks the smallest nonzero absolute value in the remaining
    block; rows and columns are cleared with one-shot extended-gcd
    transforms. This does not stop the entries of U and V from blowing up:
    on walk matrices they reach tens of thousands of bits by n = 32 and
    hundreds of thousands by n = 40, so callers that need only the
    invariant factors use ``invariant_factors``. Invariant factors come out
    positive.
    """
    nr, nc = m.rows, m.cols
    s = [list(row) for row in m.data]
    u, v = _identity(nr), _identity(nc)
    r = _smith_int(s, (u,), (v,))
    factors = tuple(s[i][i] for i in range(r))
    return SnfResult(None, IntMatrix(u), IntMatrix(s), IntMatrix(v), factors)


def _unit_to_gcd(x: int, g: int, d: int) -> int:
    """A unit c of Z/dZ with c * x = g (mod d), where g = gcd(x, d) < d.

    When x/g is a unit mod d, which over Z/p^kZ it always is, c is its
    inverse mod d. ``_diagonal_mod``, the one elimination behind
    ``invariant_factors``, ``snf_mod_pk`` and ``enumerate_columns``, thus
    scales a local-ring pivot by the inverse of its unit part, the moves
    that fix ``snf_mod_pk``'s U. Otherwise the inverse of x/g modulo d/g is
    lifted to a unit of Z/dZ.
    """
    y = x // g
    if gcd(y, d) == 1:
        return pow(y, -1, d)
    n = d // g
    c = pow(y, -1, n)
    # make c 1 modulo the part of d coprime to n (for m = 1 the term is 0)
    m = d
    while (h := gcd(m, n)) > 1:
        m //= h
    return c + n * ((1 - c) * pow(n, -1, m) % m)


def _combine_rows(m, a, b, x0, y0, af, bf, d):
    """Rows a, b of m := x0*a + y0*b and af*b - bf*a, mod d."""
    ra, rb = m[a], m[b]
    m[a] = [(x0 * p + y0 * q) % d for p, q in zip(ra, rb)]
    m[b] = [(af * q - bf * p) % d for p, q in zip(ra, rb)]


def _combine_cols(m, a, b, x0, y0, af, bf, d):
    """Column analogue of _combine_rows."""
    for row in m:
        p, q = row[a], row[b]
        row[a] = (x0 * p + y0 * q) % d
        row[b] = (af * q - bf * p) % d


def _diagonal_mod(
    rows: list[list[int]],
    d: int,
    u: list[list[int]] | None = None,
    v: list[list[int]] | None = None,
) -> list[int]:
    """Diagonalize a matrix over Z/dZ; return the min(rows, cols) diagonal.

    Each entry of the result divides d; a zero trailing block gives entries
    d. The pivot is the first trailing entry, in row-major order, with the
    smallest gcd(x, d), first scaled by a unit to that gcd. A row or column
    entry it divides is cleared by exact division; any other one by an
    extended-gcd transform, which replaces the pivot by a proper divisor.
    Pivots thus walk down the divisor lattice of d and the loop ends. Over
    Z/p^kZ the pivot divides every entry, so the diagonal is a divisor chain.

    Every row operation is also applied to ``u`` and every column operation
    to ``v`` (row lists of square matrices with entries mod d, usually the
    identity), so that u * m * v = diag (mod d) and det u, det v are units.
    Without ``v``, the top-row entries that the pivot divides are left in
    place: with the column below the pivot cleared, clearing them would
    change the top row only, which the next step drops.
    """
    diag = []
    t = 0  # rows and columns done: row t of u and column t of v go with the pivot
    while rows and rows[0]:
        best = None
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x:
                    g = gcd(x, d)
                    if best is None or g < best[0]:
                        best = (g, i, j)
                        if g == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:  # the trailing block is zero: each factor is gcd(0, d)
            diag.extend([d] * min(len(rows), len(rows[0])))
            break
        g, i, j = best
        rows[0], rows[i] = rows[i], rows[0]
        if u is not None:
            u[t], u[t + i] = u[t + i], u[t]
        if j:
            for row in rows:
                row[0], row[j] = row[j], row[0]
            for row in v or ():
                row[t], row[t + j] = row[t + j], row[t]
        if rows[0][0] != g:
            c = _unit_to_gcd(rows[0][0], g, d)
            rows[0] = [c * x % d for x in rows[0]]
            if u is not None:
                u[t] = [c * x % d for x in u[t]]

        while True:
            for i in range(1, len(rows)):
                b = rows[i][0]
                if not b:
                    continue
                if b % g == 0:
                    c = b // g
                    rows[i] = [(x - c * y) % d for x, y in zip(rows[i], rows[0])]
                    if u is not None:
                        # in place, skipping zeros: u's rows start sparse
                        ui = u[t + i]
                        for k, y in enumerate(u[t]):
                            if y:
                                ui[k] = (ui[k] - c * y) % d
                else:
                    g2, x0, y0 = _xgcd(g, b)
                    af, bf = g // g2, b // g2
                    _combine_rows(rows, 0, i, x0, y0, af, bf, d)
                    if u is not None:
                        _combine_rows(u, t, t + i, x0, y0, af, bf, d)
                    g = g2
            dirty = False
            for j in range(1, len(rows[0])):
                b = rows[0][j]
                if b % g == 0:
                    if b and v is not None:
                        c = b // g
                        for m, o in ((rows, 0), (v, t)):
                            oj = o + j
                            for row in m:
                                if row[o]:
                                    row[oj] = (row[oj] - c * row[o]) % d
                    continue
                g2, x0, y0 = _xgcd(g, b)
                af, bf = g // g2, b // g2
                _combine_cols(rows, 0, j, x0, y0, af, bf, d)
                if v is not None:
                    _combine_cols(v, t, t + j, x0, y0, af, bf, d)
                g = g2
                dirty = True
            if not dirty or not any(row[0] for row in rows[1:]):
                break
        diag.append(g)
        rows = [row[1:] for row in rows[1:]]
        t += 1
    return diag


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of m over Z, without transforms.

    A nonempty square m gets one Bareiss pass (``_det_and_factors``). When
    det m is nonzero only a trailing block is eliminated, over Z/MZ, so no
    entry ever exceeds M (Domich-Kannan-Trotter 1987, Hafner-McCurley 1991).
    Otherwise, and for a non-square or empty m, the integer elimination of
    ``snf_int`` runs on S alone (``_factors_over_z``).
    """
    if m.rows and m.is_square:
        d, factors = _det_and_factors(m.data)
        if d:
            return factors
    return _factors_over_z(m.data)


def _det_and_factors(rows) -> tuple[int, tuple[int, ...]]:
    """(det a, invariant factors of a) for the rows of a nonempty square
    matrix a, from one ``intmat._bareiss`` pass; the factors are () when
    det a = 0, and no Smith elimination runs then."""
    d, modulus, k, block = _bareiss(rows)
    if not d:
        return 0, ()
    return d, _factors_from_block(d, modulus, k, block)


def _factors_over_z(rows) -> tuple[int, ...]:
    """The nonzero invariant factors of any integer matrix by the integer
    elimination of ``snf_int``, without U and V."""
    s = [list(row) for row in rows]
    r = _smith_int(s, (), ())
    return tuple(s[i][i] for i in range(r))


def _factors_from_block(det: int, modulus: int, k: int, block) -> tuple[int, ...]:
    """The invariant factors of a nonsingular n x n matrix a that is
    equivalent to I_k (+) ``block`` over Z/MZ, M = ``modulus``, a multiple
    of d_1...d_{n-1} dividing det a: the tuple ``intmat._bareiss`` returns.

    The Smith form of a over Z/MZ is diag(gcd(d_i, M)), so k ones followed
    by the diagonal of the block over Z/MZ give d_1, ..., d_{n-1} exactly.
    The block's diagonal is put in divisor-chain order by gcd/lcm swaps,
    which keep the Smith form (the ones already lead). The last factor,
    which Z/MZ sees only as gcd(d_n, M), is recomputed as
    d_n = |det| / (d_1...d_{n-1}); a remainder, or a d_n that d_{n-1} does
    not divide, raises InvariantError. On walk matrices d_1...d_{n-1} is
    tiny next to |det|, so M is too.
    """
    d = abs(det)
    tail = _diagonal_mod([[x % modulus for x in row] for row in block], modulus)
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            a, b = tail[i], tail[j]
            g = gcd(a, b)
            tail[i], tail[j] = g, a // g * b
    head = [1] * k + tail[:-1]
    d_n, rest = divmod(d, prod(head))
    if rest or (head and d_n % head[-1]):
        raise InvariantError(
            f"|det| = {d} is not d_n * d_1...d_(n-1) for the factors "
            f"{tuple(head)} found modulo {modulus}"
        )
    return (*head, d_n)


# ---------------------------------------------------------------------------
# SNF over Z/p^kZ
# ---------------------------------------------------------------------------


def snf_mod_pk(m: IntMatrix, p: int, k: int) -> SnfResult:
    """Smith normal form over the local ring Z/p^kZ.

    Entries are reduced mod p^k and diagonalized by ``_diagonal_mod``; each
    nonzero invariant factor comes out as an exact power p^c with
    0 <= c < k, and det(U), det(V) are units. p = 2 is accepted (the form
    is ring-correct) but flagged, since the downstream level-bound rules
    only consume odd primes.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    if p == 2:
        warnings.warn(
            "snf_mod_pk at p = 2: the form is valid over Z/2^kZ, but no "
            "level-bound rule consumes it",
            stacklevel=2,
        )
    q = p ** k
    u, v = _identity(m.rows), _identity(m.cols)
    diag = _diagonal_mod([[x % q for x in row] for row in m.data], q, u, v)
    factors = tuple(x for x in diag if x < q)
    s = IntMatrix.diag(factors, m.rows, m.cols)
    return SnfResult(ModPK(p, k), IntMatrix(u), s, IntMatrix(v), factors)


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank of the projection of m over the field Z/pZ, by Gaussian elimination."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows = [[x % p for x in row] for row in m.data]
    rank = 0
    for col in range(m.cols):
        i = next((i for i, row in enumerate(rows) if row[col]), None)
        if i is None:
            continue
        top = rows.pop(i)
        rank += 1
        inv = pow(top[col], -1, p)
        for k, row in enumerate(rows):
            if row[col]:
                f = row[col] * inv % p
                rows[k] = [(x - f * y) % p for x, y in zip(row, top)]
    return rank


# ---------------------------------------------------------------------------
# Linear systems, kernels, and bases over Z/p^kZ
# ---------------------------------------------------------------------------


def _solve(res: SnfResult, b) -> tuple[int, ...] | None:
    """One x with M x = b over Z/p^kZ, read through res = (U, S, V) of M.

    M x = b holds exactly when S y = U b for y = V^-1 x, since U and V are
    invertible. So it is solvable exactly when (U b)_i is a multiple of d_i
    within the rank and 0 beyond it; then x = V * S^+ * U * b. None when
    there is no solution.
    """
    q = res.ring.modulus
    y = [0] * res.V.rows
    for i, ci in enumerate(res.U.mat_vec(b)):
        ci %= q
        if i < res.rank:
            d = res.invariant_factors[i]
            if ci % d:
                return None
            y[i] = ci // d
        elif ci:
            return None
    return tuple(val % q for val in res.V.mat_vec(y))


def _kernel(res: SnfResult) -> KernelShape:
    """Structure of ker(M) over Z/p^kZ, read off res = (U, S, V) of M."""
    p, q = res.ring.p, res.ring.modulus
    cols = res.V.rows
    torsion = tuple(v_p(d, p) for d in res.invariant_factors if d != 1)
    basis = None if torsion else tuple(
        tuple(x % q for x in res.V.column(j)) for j in range(res.rank, cols)
    )
    return KernelShape(torsion, cols - res.rank, q, basis)


def _augmented_factors(res: SnfResult, b) -> tuple[int, ...]:
    """Invariant factors of [M | b] over Z/p^kZ, read through res = (U, S, V) of M.

    U [M | b] diag(V, 1) = [S | U b], so both have the same factors; the
    second is diagonalized without transforms.
    """
    q = res.ring.modulus
    rows = [[*row, y % q] for row, y in zip(res.S.data, res.U.mat_vec(b))]
    return tuple(x for x in _diagonal_mod(rows, q) if x < q)


def solvable_mod_pk(
    m: IntMatrix, b: tuple[int, ...] | list[int], p: int, k: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide M x = b over Z/p^kZ; return (solvable, one solution or None).

    Solvability and the solution are both read through the U and S of one
    decomposition U M V = S (``_solve``), and the solution is checked
    against the system.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    q = p ** k
    x = _solve(snf_mod_pk(m, p, k), b)
    if x is None:
        return False, None
    if tuple(val % q for val in m.mat_vec(x)) != tuple(val % q for val in b):
        raise InvariantError("extracted solution does not satisfy the system")
    return True, x


def kernel_shape(m: IntMatrix, p: int, k: int) -> KernelShape:
    """Structure of ker(M) over Z/p^kZ from the invariant factors.

    Torsion exponents are the nonzero c_i; the free rank is n - r. When the
    kernel is free, an explicit basis (columns of V past the rank) is
    attached.
    """
    return _kernel(snf_mod_pk(m, p, k))


def dn_test(m: IntMatrix, p: int, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Does M z = 0 (mod p^k) admit a solution with z != 0 (mod p)?

    For an m x n integral matrix with m >= n this holds exactly when p^k
    divides the n-th invariant factor over Z, that is when the n-th factor
    over Z/p^kZ is 0. The elimination over Z/p^kZ carries V alone; with
    U M V = diag (mod p^k) the witness is V's last column, nonzero mod p
    since det V is a unit.
    """
    if not is_prime(p) or k < 1:
        raise ValueError(f"need a prime p and k >= 1, got p = {p}, k = {k}")
    if m.rows < m.cols:
        raise ValueError("matrix must have at least as many rows as columns")
    q = p ** k
    v = _identity(m.cols)
    if _diagonal_mod([[x % q for x in row] for row in m.data], q, v=v)[-1] != q:
        return False, None
    z = tuple(row[-1] for row in v)
    if all(x % p == 0 for x in z):
        raise InvariantError("invertible transform produced a column divisible by p")
    if any(x % q for x in m.mat_vec(z)):
        raise InvariantError("witness fails M z = 0 mod p^k")
    return True, z


def _pivot_rows_mod_p(columns: list[list[int]], nrows: int, p: int) -> list[int] | None:
    """Row indices pivoting the given columns over Z/pZ; None if dependent."""
    work = [[c[i] % p for c in columns] for i in range(nrows)]
    used: list[int] = []
    for col in range(len(columns)):
        pivot_row = None
        for i in range(nrows):
            if i not in used and work[i][col] % p:
                pivot_row = i
                break
        if pivot_row is None:
            return None
        used.append(pivot_row)
        inv = pow(work[pivot_row][col], -1, p)
        work[pivot_row] = [(inv * x) % p for x in work[pivot_row]]
        for i in range(nrows):
            if i != pivot_row and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[pivot_row])]
    return used


def extend_basis(
    vectors: list[tuple[int, ...]],
    free_module_basis: list[tuple[int, ...]],
    p: int,
    k: int,
) -> list[tuple[int, ...]]:
    """Extend independent vectors of a free submodule of (Z/p^kZ)^n to a basis.

    Inputs must lie in the module spanned by ``free_module_basis`` and be
    linearly independent (checked via their projections mod p). The
    completion keeps the inputs and appends suitable original basis vectors,
    chosen so the full coordinate matrix is invertible mod p.
    """
    q = p ** k
    rank = len(free_module_basis)
    if len(vectors) > rank:
        raise ValueError("more vectors than the module rank")
    basis_mat = IntMatrix.from_columns(free_module_basis)

    coords = []
    for vec in vectors:
        ok, x = solvable_mod_pk(basis_mat, vec, p, k)
        if not ok:
            raise ValueError("vector does not lie in the given free module")
        coords.append(list(x))

    if not vectors:
        return list(free_module_basis)

    pivots = _pivot_rows_mod_p(coords, rank, p)
    if pivots is None:
        raise ValueError("vectors are linearly dependent mod p")
    if len(vectors) == rank:
        return list(vectors)

    complement = [i for i in range(rank) if i not in pivots]
    completion = [free_module_basis[i] for i in complement]

    # final safety: coordinates of the completed set must be invertible mod p
    full = [list(c) for c in coords]
    for i in complement:
        e = [0] * rank
        e[i] = 1
        full.append(e)
    if _pivot_rows_mod_p(full, rank, p) is None:
        raise InvariantError("completed set is not a basis mod p")
    out = list(vectors) + [tuple(x % q for x in w) for w in completion]
    return out
