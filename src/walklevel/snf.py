"""Smith normal forms over Z and over Z/p^kZ, with or without transforms.

``snf_int`` and ``snf_mod_pk`` return the full (U, S, V) triple with
U*M*V = S in the stated ring. Over Z the transforms are unimodular; over
Z/p^kZ their determinants are units, and every nonzero invariant factor is
normalized to a pure prime power p^c with 0 <= c < k.

One Smith elimination, ``_diagonal_mod`` over Z/dZ, where d = 0 means Z,
serves every caller. Over Z it runs in ``snf_int`` (with U and V), for
``walklevel snf``, and in ``_factors_over_z`` (without), the invariant
factors of a singular, non-square or empty matrix. Over Z/dZ it runs in
``snf_mod_pk`` (with U and V), for the invariant factors (without), and in
``_kernel_mod`` (with V alone), which gives ker(M mod d) to ``dn_test`` and
``matesearch.enumerate_columns``. A nonempty square matrix takes one path,
``_det_and_factors``, shared by ``invariant_factors`` and ``walk_profile``:
one ``intmat._bareiss`` pass, in rounds of up to three pivots that
divide by the last pivot before the round alone, pivots on entries of
least 2-adic valuation and gives det, v_2(d_1), ..., v_2(d_{n-1}) off its
pivots, a modulus M = gcd(|det|, h) with h a gcd of (n-1)-minors, and a
trailing block T_k such that the matrix is I_k (+) T_k over Z/mZ, m the
odd part of M (k >= 1 on walk matrices, whose first pivot is 1).
``_factors_from_block`` eliminates T_k alone modulo m, and only when
m > 1, which on walk matrices is rare: 2 carries most of d_1...d_{n-1}.
M is a multiple of d_1...d_{n-1}, so this gives d_1, ..., d_{n-1}
exactly, and d_n is recomputed as |det| / (d_1...d_{n-1}). Since U and
V are unimodular, the rank of a matrix mod p is the number of its
invariant factors prime to p, and v_p(det) is the sum of their
valuations: ``walk_profile`` reads its prime table that way.
``rank_mod_p`` counts the pivots of the one GF(p) elimination,
``_pivot_rows_mod_p``, whose pivot rows ``extend_basis`` reads. It has no
caller in the pipeline; it stays public because the tests use it as an
oracle and the benchmark's span list names it.

On top of the forms sit the module-theoretic helpers: solvability of
M x = b over Z/p^kZ, kernel structure, the "does M z = 0 have a unit-entry
solution mod p^k" test, and basis extension inside free submodules. Three
private readers take one decomposition U M V = S over Z/p^kZ: ``_solve``
(M x = b through U and S, for every vector of an ``extend_basis`` call),
``_kernel`` (ker M off ``_kernel_generators``) and
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
from .intmat import IntMatrix, _bareiss, _odd_part


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
    """ker(M) over Z/p^kZ as  (+)_i Z/p^{c_i}Z  (+)  (Z/p^kZ)^{free_rank}
    (``_kernel_generators``), with ``free_basis`` a basis when it is free."""

    torsion_exponents: tuple[int, ...]
    free_rank: int
    modulus: int
    free_basis: tuple[tuple[int, ...], ...] | None


# ---------------------------------------------------------------------------
# The Smith elimination over Z/dZ, d = 0 standing for Z
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def _unit_to_gcd(x: int, g: int, d: int) -> int:
    """A unit c of Z/dZ with c * x = g (mod d), where g = gcd(x, d) < d, or
    over Z (d = 0) the sign of x, so that c * x = |x| = g.

    When x/g is a unit mod d, which over Z/p^kZ it always is, c is its
    inverse mod d: ``_diagonal_mod`` scales a local-ring pivot by the
    inverse of its unit part, the moves that fix ``snf_mod_pk``'s U.
    Otherwise the inverse of x/g modulo d/g is lifted to a unit of Z/dZ.
    """
    y = x // g
    if gcd(y, d) == 1:
        return pow(y, -1, d) if d else y
    n = d // g
    c = pow(y, -1, n)
    # make c 1 modulo the part of d coprime to n (for m = 1 the term is 0)
    m = d
    while (h := gcd(m, n)) > 1:
        m //= h
    return c + n * ((1 - c) * pow(n, -1, m) % m)


def _combine_rows(m, a, b, x0, y0, af, bf, d):
    """Rows a, b of m := x0*a + y0*b and af*b - bf*a, mod d (d = 0: over Z)."""
    ra, rb = m[a], m[b]
    m[a] = [x0 * p + y0 * q for p, q in zip(ra, rb)]
    m[b] = [af * q - bf * p for p, q in zip(ra, rb)]
    if d:
        m[a] = [x % d for x in m[a]]
        m[b] = [x % d for x in m[b]]


def _combine_cols(m, a, b, x0, y0, af, bf, d):
    """Column analogue of _combine_rows."""
    for row in m:
        p, q = row[a], row[b]
        row[a] = x0 * p + y0 * q
        row[b] = af * q - bf * p
    if d:
        for row in m:
            row[a] %= d
            row[b] %= d


def _diagonal_mod(
    rows: list[list[int]],
    d: int,
    u: list[list[int]] | None = None,
    v: list[list[int]] | None = None,
) -> list[int]:
    """Smith form over Z/dZ, or over Z when d = 0; return the min(rows, cols)
    diagonal, a divisor chain.

    Each entry of the result divides d (over Z: is positive, or 0); a zero
    trailing block gives entries d. The pivot is the first trailing entry,
    in row-major order, with the smallest gcd(x, d), which over Z is |x|,
    first scaled by a unit to that gcd (over Z, by its sign). A row or
    column entry it divides is cleared by exact division; any other one by
    an extended-gcd transform, which replaces the pivot by a proper divisor.
    Pivots thus walk down the divisor lattice of d (over Z, down the
    positive integers) and the loop ends. Over Z/p^kZ the pivot divides
    every entry and the pivots already form a chain; over Z or a composite d
    a pair that fails to divide, a before b, becomes (gcd, lcm) by row
    a += row b, one column gcd step and row b -= (b*y/g)*row a.

    Every row operation is also applied to ``u`` and every column operation
    to ``v`` (row lists of square matrices with entries mod d, usually the
    identity), so that u * m * v = diag (mod d) and det u, det v are units
    (over Z: +-1). Without ``v``, the top-row entries that the pivot divides
    are left in place: with the column below the pivot cleared, clearing
    them would change the top row only, which the next step drops. Over Z
    an exact clear goes through ``_combine_rows`` or ``_combine_cols`` with
    (1, 0, 1, c), not through ``_xgcd``, whose (3, 0, 1) for g = b = 3
    would swap the pivot's line with the cleared one.
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
            rows[0] = [c * x % d for x in rows[0]] if d else [c * x for x in rows[0]]
            if u is not None:
                u[t] = [c * x % d for x in u[t]] if d else [c * x for x in u[t]]

        while True:
            for i in range(1, len(rows)):
                b = rows[i][0]
                if not b:
                    continue
                if b % g:
                    g2, x0, y0 = _xgcd(g, b)
                elif d:
                    c = b // g
                    rows[i] = [(x - c * y) % d for x, y in zip(rows[i], rows[0])]
                    if u is not None:
                        # in place, skipping zeros: u's rows start sparse
                        ui = u[t + i]
                        for k, y in enumerate(u[t]):
                            if y:
                                ui[k] = (ui[k] - c * y) % d
                    continue
                else:
                    g2, x0, y0 = g, 1, 0
                af, bf = g // g2, b // g2
                _combine_rows(rows, 0, i, x0, y0, af, bf, d)
                if u is not None:
                    _combine_rows(u, t, t + i, x0, y0, af, bf, d)
                g = g2
            dirty = False
            for j in range(1, len(rows[0])):
                b = rows[0][j]
                if b % g:
                    g2, x0, y0 = _xgcd(g, b)
                    dirty = True
                elif not b or v is None:
                    continue
                elif d:
                    c = b // g
                    for m, o in ((rows, 0), (v, t)):
                        oj = o + j
                        for row in m:
                            if row[o]:
                                row[oj] = (row[oj] - c * row[o]) % d
                    continue
                else:
                    g2, x0, y0 = g, 1, 0
                af, bf = g // g2, b // g2
                _combine_cols(rows, 0, j, x0, y0, af, bf, d)
                if v is not None:
                    _combine_cols(v, t, t + j, x0, y0, af, bf, d)
                g = g2
            if not dirty or not any(row[0] for row in rows[1:]):
                break
        diag.append(g)
        rows = [row[1:] for row in rows[1:]]
        t += 1

    # the t pivots into a divisor chain, each joining the chain before it
    # (the zero block after them extends any chain)
    for j in range(1, t):
        if diag[j] % diag[j - 1] == 0:
            continue
        for i in range(j):
            a, b = diag[i], diag[j]
            if b % a:
                g, x, y = _xgcd(a, b)
                diag[i], diag[j] = g, a // g * b
                if u is not None:
                    c = b * y // g
                    _combine_rows(u, i, j, 1, 1, 1 - c, c, d)
                if v is not None:
                    _combine_cols(v, i, j, x, y, a // g, b // g, d)
    return diag


# ---------------------------------------------------------------------------
# SNF over Z
# ---------------------------------------------------------------------------


def snf_int(m: IntMatrix) -> SnfResult:
    """Smith normal form over Z with unimodular transforms, by
    ``_diagonal_mod`` with d = 0.

    U and V are not unique, and nothing stops their entries from blowing
    up: on walk matrices they reach tens of thousands of bits by n = 32 and
    hundreds of thousands by n = 40, so callers that need only the
    invariant factors use ``invariant_factors``. Invariant factors come out
    positive.
    """
    u, v = _identity(m.rows), _identity(m.cols)
    diag = _diagonal_mod([list(row) for row in m.data], 0, u, v)
    factors = tuple(x for x in diag if x)
    s = IntMatrix.diag(factors, m.rows, m.cols)
    return SnfResult(None, IntMatrix(u), s, IntMatrix(v), factors)


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of m over Z, without transforms.

    A nonempty square m gets one Bareiss pass (``_det_and_factors``). When
    det m is nonzero the pass's pivots give the 2-parts of d_1, ..., d_{n-1},
    and at most a trailing block is eliminated, over Z/mZ with m the odd
    part of M, so no entry ever exceeds M (Domich-Kannan-Trotter 1987,
    Hafner-McCurley 1991).
    Otherwise, and for a non-square or empty m, the elimination of
    ``snf_int``, over Z, runs on S alone (``_factors_over_z``).
    """
    if m.rows and m.is_square:
        d, factors = _det_and_factors(m.data)
        if d:
            return factors
    return _factors_over_z(m.data)


def _det_and_factors(rows) -> tuple[int, tuple[int, ...]]:
    """(det a, invariant factors of a) for the rows of a nonempty square
    matrix a, from one ``intmat._bareiss`` pass; the factors are () when
    det a = 0, and no Smith elimination runs then. The 2-parts of
    d_1, ..., d_{n-1} come from the pass's pivots, and only a nontrivial
    odd part of its modulus M has a trailing block eliminated."""
    d, modulus, k, block, twos = _bareiss(rows)
    if not d:
        return 0, ()
    return d, _factors_from_block(d, modulus, k, block, twos)


def _factors_over_z(rows) -> tuple[int, ...]:
    """The nonzero invariant factors of any integer matrix, by
    ``_diagonal_mod`` over Z (d = 0) without U and V."""
    return tuple(x for x in _diagonal_mod([list(row) for row in rows], 0) if x)


def _factors_from_block(det: int, modulus: int, k: int, block, twos) -> tuple[int, ...]:
    """The invariant factors of a nonsingular n x n matrix a from the tuple
    ``intmat._bareiss`` returns: M = ``modulus`` is a multiple of
    d_1...d_{n-1} dividing det a, ``twos`` holds v_2(d_1), ..., v_2(d_{n-1}),
    and a is equivalent to I_k (+) ``block`` over Z/mZ, m the odd part of M.

    d_i = 2^v_2(d_i) * o_i for i < n, o_i the odd part of d_i. The Smith
    form of a over Z/mZ is diag(gcd(d_i, m)), and gcd(d_i, m) = o_i for
    i < n, so k ones followed by the divisor chain that ``_diagonal_mod``
    returns for the block over Z/mZ give o_1, ..., o_{n-1} exactly. When
    m = 1 every o_i is 1 and nothing is eliminated. The last
    factor, which neither part fixes, is recomputed as
    d_n = |det| / (d_1...d_{n-1}); a remainder, or a d_n that d_{n-1} does
    not divide, raises InvariantError. On walk matrices d_1...d_{n-1} is
    tiny next to |det|, so M is too, and m is mostly 1.
    """
    d = abs(det)
    odd = _odd_part(modulus)
    odds = [1] * len(twos)
    if odd > 1:
        odds[k:] = _diagonal_mod([[x % odd for x in row] for row in block], odd)[:-1]
    head = [o << v for o, v in zip(odds, twos)]
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
    _check_ring(p, k)
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


def _check_ring(p: int, k: int) -> None:
    """Raise ValueError unless Z/p^kZ has p prime and k >= 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank of the projection of m over the field Z/pZ, by Gaussian elimination."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return len(_pivot_rows_mod_p(m.data, p))


def _pivot_rows_mod_p(rows, p: int) -> list[int]:
    """The pivot row of each column that has one, in column order, of the
    Gaussian elimination over Z/pZ of the matrix with these rows; a column's
    pivot is the first unused row that is nonzero there."""
    work = [[x % p for x in row] for row in rows]
    unused = list(range(len(work)))
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        i = next((i for i in unused if work[i][col]), None)
        if i is None:
            continue
        unused.remove(i)
        pivots.append(i)
        inv = pow(work[i][col], -1, p)
        for j in unused:
            if work[j][col]:
                f = work[j][col] * inv % p
                work[j] = [(x - f * y) % p for x, y in zip(work[j], work[i])]
    return pivots


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


def _kernel_generators(diag, v, m: int) -> list[tuple[int, tuple[int, ...]]]:
    """ker(M) over Z/mZ as (order, generator) pairs in column order, from a
    diagonal of M by ``_diagonal_mod`` (trailing entries m may be left off)
    and the rows ``v`` of its column transform V.

    U M V = diag(g_1, ..., g_r) mod m with U, V invertible and g_j | m, so
    M x = 0 exactly when y = V^-1 x has y_j a multiple of m/g_j for j <= r.
    A column of V has order m, so ker(M) is the direct sum of the cyclic
    groups generated by (m/g_j) V_j, of order g_j, for each g_j > 1, and by
    the columns V_j past the diagonal, of order m. This holds for composite
    m and for more columns than rows.
    """
    gs = [*diag, *[m] * (len(v) - len(diag))]
    return [(g, tuple(m // g * row[j] % m for row in v))
            for j, g in enumerate(gs) if g > 1]


def _kernel_mod(rows, cols: int, m: int) -> list[tuple[int, tuple[int, ...]]]:
    """ker(M mod m) for the matrix M with these rows and ``cols`` columns:
    the ``_kernel_generators`` of one ``_diagonal_mod`` with V alone."""
    v = _identity(cols)
    diag = _diagonal_mod([[x % m for x in row] for row in rows], m, v=v)
    return _kernel_generators(diag, v, m)


def _kernel(res: SnfResult) -> KernelShape:
    """Structure of ker(M) over Z/p^kZ, read off res = (U, S, V) of M."""
    p, q = res.ring.p, res.ring.modulus
    pairs = _kernel_generators(res.invariant_factors, res.V.data, q)
    torsion = tuple(v_p(g, p) for g, _ in pairs if g < q)
    basis = None if torsion else tuple(z for _, z in pairs)
    return KernelShape(torsion, len(pairs) - len(torsion), q, basis)


def _augmented_factors(res: SnfResult, b) -> tuple[int, ...]:
    """Invariant factors of [M | b] over Z/p^kZ, read through res = (U, S, V) of M.

    U [M | b] diag(V, 1) = [S | U b], so both have the same factors; the
    second is diagonalized without transforms.
    """
    q = res.ring.modulus
    rows = [[*row, y % q] for row, y in zip(res.S.data, res.U.mat_vec(b))]
    return tuple(x for x in _diagonal_mod(rows, q) if x < q)


def _checked_solutions(m: IntMatrix, vectors, p: int, k: int):
    """For each b in turn, one x with M x = b over Z/p^kZ or None, all through
    one ``snf_mod_pk`` (``_solve``); each x is checked against the system."""
    res = None
    for b in vectors:
        if len(b) != m.rows:
            raise ValueError("right-hand side length does not match row count")
        if res is None:
            res = snf_mod_pk(m, p, k)
            q = res.ring.modulus
        x = _solve(res, b)
        if x is not None and [val % q for val in m.mat_vec(x)] != [val % q for val in b]:
            raise InvariantError("extracted solution does not satisfy the system")
        yield x


def solvable_mod_pk(
    m: IntMatrix, b: tuple[int, ...] | list[int], p: int, k: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide M x = b over Z/p^kZ; return (solvable, one solution or None),
    both read through one decomposition U M V = S (``_checked_solutions``)."""
    x = next(_checked_solutions(m, [b], p, k))
    return x is not None, x


def kernel_shape(m: IntMatrix, p: int, k: int) -> KernelShape:
    """The ``KernelShape`` of ker(M) over Z/p^kZ, off one ``snf_mod_pk``."""
    return _kernel(snf_mod_pk(m, p, k))


def dn_test(m: IntMatrix, p: int, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Does M z = 0 (mod p^k) admit a solution with z != 0 (mod p)?

    For an m x n integral matrix with m >= n this holds exactly when p^k
    divides the n-th invariant factor over Z, that is when a generator of
    ker(M) over Z/p^kZ has order p^k (the others are 0 mod p); the witness
    is the last such generator (``_kernel_mod``).
    """
    if not is_prime(p) or k < 1:
        raise ValueError(f"need a prime p and k >= 1, got p = {p}, k = {k}")
    if m.rows < m.cols:
        raise ValueError("matrix must have at least as many rows as columns")
    q = p ** k
    z = next((z for g, z in reversed(_kernel_mod(m.data, m.cols, q)) if g == q), None)
    if z is None:
        return False, None
    if all(x % p == 0 for x in z):
        raise InvariantError("invertible transform produced a column divisible by p")
    if any(x % q for x in m.mat_vec(z)):
        raise InvariantError("witness fails M z = 0 mod p^k")
    return True, z


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
    _check_ring(p, k)
    q = p ** k
    rank = len(free_module_basis)
    if len(vectors) > rank:
        raise ValueError("more vectors than the module rank")
    basis_mat = IntMatrix.from_columns(free_module_basis)

    coords = []
    for x in _checked_solutions(basis_mat, vectors, p, k):
        if x is None:
            raise ValueError("vector does not lie in the given free module")
        coords.append(x)

    if not vectors:
        return list(free_module_basis)

    # row i of the coordinate matrix holds the i-th coordinate of each vector
    pivots = _pivot_rows_mod_p(list(zip(*coords)), p)
    if len(pivots) < len(vectors):
        raise ValueError("vectors are linearly dependent mod p")
    if len(vectors) == rank:
        return list(vectors)

    complement = [i for i in range(rank) if i not in pivots]

    # final safety: coordinates of the completed set must be invertible mod p
    full = list(coords)
    for i in complement:
        e = [0] * rank
        e[i] = 1
        full.append(e)
    if len(_pivot_rows_mod_p(full, p)) < rank:
        raise InvariantError("completed set is not a basis mod p")
    return list(vectors) + [tuple(x % q for x in free_module_basis[i]) for i in complement]
