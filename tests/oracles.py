"""Independent oracles for cross-checking the library.

Everything here is deliberately written from scratch against the textbook
definitions (cofactor expansions, exhaustive enumerations, plain Gaussian
elimination) and never calls the code paths it checks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd


# -- polynomial arithmetic on plain coefficient lists (lowest degree first) --


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_scale(a, c):
    return tuple(c * x for x in a) if c else ()


def charpoly_cofactor(mat) -> tuple[int, ...]:
    """det(xI - A) by first-row cofactor expansion with column-subset memo."""
    n = len(mat)

    def entry(i, j):
        if i == j:
            return (-mat[i][i], 1)
        return (-mat[i][j],) if mat[i][j] else ()

    @lru_cache(maxsize=None)
    def expand(cols: tuple[int, ...]):
        row = n - len(cols)
        if not cols:
            return (1,)
        acc = ()
        for pos, j in enumerate(cols):
            e = entry(row, j)
            if not e:
                continue
            rest = cols[:pos] + cols[pos + 1:]
            term = poly_mul(e, expand(rest))
            if pos % 2:
                term = poly_scale(term, -1)
            acc = poly_add(acc, term)
        return acc

    return expand(tuple(range(n)))


def det_cofactor(mat) -> int:
    """Plain Laplace expansion along the first row (for small n)."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det_cofactor(minor)
    return total


# -- Smith-form oracles ------------------------------------------------------


def minor_gcd(mat, k) -> int:
    """gcd of all k x k minors (0 when all vanish)."""
    nr, nc = len(mat), len(mat[0])
    g = 0
    for rows in combinations(range(nr), k):
        for cols in combinations(range(nc), k):
            sub = [[mat[i][j] for j in cols] for i in rows]
            g = gcd(g, det_cofactor(sub))
    return g


def rank_gauss_mod_p(mat, p) -> int:
    """Row-echelon rank over Z/pZ by straightforward Gaussian elimination."""
    work = [[x % p for x in row] for row in mat]
    nr = len(work)
    nc = len(work[0]) if work else 0
    rank = 0
    row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if work[r][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        inv = pow(work[row][col], -1, p)
        work[row] = [(inv * x) % p for x in work[row]]
        for r in range(nr):
            if r != row and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[row])]
        row += 1
        rank += 1
        if row == nr:
            break
    return rank


def invariant_factors_mod_det(mat, det) -> tuple[int, ...]:
    """Invariant factors of a nonsingular square matrix whose determinant is
    ``det``, by the path ``snf.invariant_factors`` took when a caller passed
    det alone: the whole matrix is diagonalized over Z/|det|Z, the diagonal
    is made a divisor chain by gcd/lcm swaps, which gives d_1, ..., d_(n-1),
    and d_n is |det| / (d_1...d_(n-1)).

    The elimination is written out here: the pivot is a nonzero entry of
    least gcd with |det|, and each entry below or right of it is cleared by
    an integer extended-gcd row or column transform (determinant 1), or by
    plain subtraction when the pivot divides it, so the pivot's
    representative shrinks until it divides its row and column.
    """
    d = abs(det)
    rows = [[x % d for x in row] for row in mat]
    diag = []

    def xgcd(a, b):
        if b % a == 0:  # plain subtraction: swapping would ping-pong forever
            return a, 1, 0
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1, y0, y1 = x1, x0 - q * x1, y1, y0 - q * y1
        return a, x0, y0

    while rows:
        nz = [(gcd(x, d), i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
        if not nz:
            diag.extend([d] * len(rows))
            break
        _, i, j = min(nz)
        rows[0], rows[i] = rows[i], rows[0]
        for row in rows:
            row[0], row[j] = row[j], row[0]
        while any(row[0] for row in rows[1:]) or any(rows[0][1:]):
            for i in range(1, len(rows)):
                a, b = rows[0][0], rows[i][0]
                if b:
                    g, x, y = xgcd(a, b)
                    r0, ri = rows[0], rows[i]
                    rows[0] = [(x * u + y * v) % d for u, v in zip(r0, ri)]
                    rows[i] = [(a // g * v - b // g * u) % d for u, v in zip(r0, ri)]
            for j in range(1, len(rows[0])):
                a, b = rows[0][0], rows[0][j]
                if b:
                    g, x, y = xgcd(a, b)
                    for row in rows:
                        u, v = row[0], row[j]
                        row[0], row[j] = (x * u + y * v) % d, (a // g * v - b // g * u) % d
        diag.append(gcd(rows[0][0], d))
        rows = [row[1:] for row in rows[1:]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    head = diag[:-1]
    prod = 1
    for f in head:
        prod *= f
    assert d % prod == 0
    return (*head, d // prod)


def all_vectors_mod(q, n):
    return product(range(q), repeat=n)


def matvec_mod(mat, v, q):
    return tuple(sum(a * x for a, x in zip(row, v)) % q for row in mat)


def exhaustive_solvable(mat, b, p, k) -> bool:
    """Scan all of (Z/p^kZ)^n for a solution of M x = b."""
    q = p ** k
    target = tuple(x % q for x in b)
    for v in all_vectors_mod(q, len(mat[0])):
        if matvec_mod(mat, v, q) == target:
            return True
    return False


def exhaustive_kernel_count(mat, p, k) -> int:
    q = p ** k
    zero = (0,) * len(mat)
    return sum(1 for v in all_vectors_mod(q, len(mat[0])) if matvec_mod(mat, v, q) == zero)


def exhaustive_unit_kernel_exists(mat, p, k) -> bool:
    """Is there z with M z = 0 (mod p^k) and z not = 0 (mod p)?"""
    q = p ** k
    zero = (0,) * len(mat)
    for v in all_vectors_mod(q, len(mat[0])):
        if any(x % p for x in v) and matvec_mod(mat, v, q) == zero:
            return True
    return False


def augment_column(m, b):
    """The IntMatrix [M | b]: M with the column b appended."""
    from walklevel.intmat import IntMatrix

    if len(b) != m.rows:
        raise ValueError("column length does not match row count")
    return IntMatrix(tuple(row + (int(x),) for row, x in zip(m.data, b)))


def solvable_by_factor_match(m, b, p, k) -> bool:
    """Is M x = b solvable over Z/p^kZ, decided as solvable_mod_pk once did?

    Frozen from its earlier decision path: over a local ring the system is
    solvable exactly when M and the augmented matrix (M, b) have the same
    invariant factors. It calls snf_mod_pk, not the decision it checks.
    """
    from walklevel.snf import snf_mod_pk

    return (snf_mod_pk(m, p, k).invariant_factors
            == snf_mod_pk(augment_column(m, b), p, k).invariant_factors)


# -- random graphs and brute-force columns ----------------------------------


def random_controllable(rng, n):
    """The first G(n, 1/2) draw from rng whose walk matrix is nonsingular.

    No graph on 2 to 5 vertices is controllable: an exhaustive count finds
    none among the 2^C(n,2) labeled graphs, against 5,760 at n = 6. Those n
    raise ValueError rather than draw forever.
    """
    from walklevel.graphs import Graph, walk_matrix
    from walklevel.intmat import det

    if 2 <= n <= 5:
        raise ValueError(f"no graph on {n} vertices is controllable")
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if det(walk_matrix(g)):
            return g


def box_columns(g, level):
    """Every v in the box |v_i| <= level with v.v = level^2, e.v = level and
    W^T v = 0 (mod level), in lexicographic order, by scanning the box."""
    from walklevel.graphs import walk_matrix

    wt = walk_matrix(g).T
    out = []
    for v in product(range(-level, level + 1), repeat=g.n):
        if sum(x * x for x in v) != level * level or sum(v) != level:
            continue
        if all(x % level == 0 for x in wt.mat_vec(v)):
            out.append(v)
    return out


# -- exhaustive mate enumeration (the completeness oracle) -------------------


def bruteforce_mate_classes(g):
    """All admissible-matrix classes of g by exhaustive graph enumeration.

    Enumerates every graph H on n vertices with the same edge count, filters
    by float spectra of the graph and its complement (loose tolerance, then
    exact verification), and maps each surviving H through from_pair. The
    returned set of (level, canonical scaled matrix) keys is the ground
    truth that the lattice search must reproduce. Feasible for n <= 7.
    """
    import numpy as np

    from walklevel.graphs import Graph, generalized_cospectral
    from walklevel.ortho import from_pair

    n = g.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nbits = len(pairs)
    m_edges = g.edge_count

    a_g = np.array(g.adj, dtype=np.float64)
    comp = np.ones((n, n)) - np.eye(n) - a_g
    target = np.sort(np.linalg.eigvalsh(a_g))
    target_c = np.sort(np.linalg.eigvalsh(comp))

    masks = np.arange(1 << nbits, dtype=np.int64)
    pop = np.zeros(1 << nbits, dtype=np.int8)
    for b in range(nbits):
        pop += ((masks >> b) & 1).astype(np.int8)
    masks = masks[pop == m_edges]

    a2_g = a_g @ a_g
    tr3_g = int(round(np.einsum("ij,ji->", a2_g, a_g)))
    tr4_g = int(round(np.einsum("ij,ij->", a2_g, a2_g)))

    candidates = []
    chunk = 1 << 15
    eye = np.eye(n)
    ones = np.ones((n, n))
    for start in range(0, len(masks), chunk):
        batch = masks[start:start + chunk]
        adj = np.zeros((len(batch), n, n), dtype=np.float64)
        for b, (i, j) in enumerate(pairs):
            hit = ((batch >> b) & 1).astype(np.float64)
            adj[:, i, j] = hit
            adj[:, j, i] = hit
        # closed-walk counts of length 3 and 4 are spectral invariants and
        # integer-exact here; they discard most masks before any eigvalsh
        a2 = np.matmul(adj, adj)
        tr3 = np.rint(np.einsum("bij,bji->b", a2, adj)).astype(np.int64)
        tr4 = np.rint(np.einsum("bij,bij->b", a2, a2)).astype(np.int64)
        keep = (tr3 == tr3_g) & (tr4 == tr4_g)
        if not keep.any():
            continue
        batch = np.asarray(batch)[keep]
        adj = adj[keep]
        eigs = np.sort(np.linalg.eigvalsh(adj), axis=1)
        close = np.all(np.abs(eigs - target) < 1e-6, axis=1)
        if close.any():
            comp_adj = ones - eye - adj[close]
            eigs_c = np.sort(np.linalg.eigvalsh(comp_adj), axis=1)
            ok = np.all(np.abs(eigs_c - target_c) < 1e-6, axis=1)
            candidates.extend(batch[close][ok].tolist())

    # exact stage: for each surviving H, build the unique candidate
    # similarity Q^T = W(H) W(G)^{-1} from one precomputed adjugate and
    # verify orthogonality + regularity + conjugation in integer arithmetic
    # (the regular-orthogonal-similarity criterion); each distinct class is
    # then cross-checked through the real from_pair constructor
    from walklevel.intmat import adjugate, det
    from walklevel.graphs import walk_matrix

    adj_rows = [list(r) for r in g.adj]
    w_g = walk_matrix(g)
    d = det(w_g)
    assert d != 0, "oracle needs a controllable graph"
    adj_w = [list(r) for r in adjugate(w_g).data]

    def walk_rows(rows):
        cols = []
        v = [1] * n
        for _ in range(n):
            cols.append(v)
            v = [sum(rows[i][j] * v[j] for j in range(n)) for i in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    classes = set()
    mates = []
    for mask in candidates:
        h_rows = [[0] * n for _ in range(n)]
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                h_rows[i][j] = h_rows[j][i] = 1
        # numt = W(H) @ adj(W(G)) = d * Q^T
        w_h = walk_rows(h_rows)
        numt = [[sum(w_h[i][k] * adj_w[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        den = d
        if den < 0:
            den = -den
            numt = [[-x for x in row] for row in numt]
        shared = den
        for row in numt:
            for x in row:
                shared = gcd(shared, x)
        den //= shared
        qhat = [[numt[j][i] // shared for j in range(n)] for i in range(n)]  # transpose
        den2 = den * den
        # Q^T Q = den^2 I (columns of qhat are rows of numt)
        ok = all(
            sum(qhat[i][a] * qhat[i][b] for i in range(n)) == (den2 if a == b else 0)
            for a in range(n) for b in range(a, n)
        )
        ok = ok and all(sum(row) == den for row in qhat)
        ok = ok and all(sum(qhat[i][j] for i in range(n)) == den for j in range(n))
        if ok:
            aq = [[sum(adj_rows[i][k] * qhat[k][j] for k in range(n)) for j in range(n)]
                  for i in range(n)]
            for i in range(n):
                for j in range(n):
                    if sum(qhat[k][i] * aq[k][j] for k in range(n)) != den2 * h_rows[i][j]:
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            continue  # float filter let a non-mate through; exactness rejects it
        key = (den, tuple(sorted(tuple(qhat[i][j] for i in range(n)) for j in range(n))))
        if key in classes:
            continue
        classes.add(key)
        edges = [pairs[b] for b in range(nbits) if (mask >> b) & 1]
        h = Graph.from_edges(n, edges)
        assert generalized_cospectral(g, h)
        q = from_pair(g, h)
        assert q.canonical_key() == key
        mates.append((q, h))
    return classes, mates


# -- backtracking mate assembly (cross-check for the clique assembly) --------


def backtrack_search_mates(g, levels, node_cap=10**8):
    """search_mates with plain depth-first backtracking in place of cliques.

    It shares the candidate columns (enumerate_columns), the lowest-terms
    filter and the class dedupe with search_mates; only the assembly
    differs. The DFS picks strictly increasing candidate indices under
    running pairwise checks (v_i.v_j = 0, v_i^T A v_j in {0, l^2}) and row
    norms at most l^2, so it never builds the compatibility graph.
    """
    from walklevel.errors import SearchCapExceeded
    from walklevel.graphs import walk_matrix
    from walklevel.intmat import IntMatrix, dot
    from walklevel.matesearch import MateClass, enumerate_columns
    from walklevel.ortho import RatRegOrtho, conjugate

    def assemble(cands, a_cands, n, lvl2):
        m = len(cands)
        results = []
        chosen = []
        row_norms = [0] * n
        nodes = 0

        def rec(start):
            nonlocal nodes
            if len(chosen) == n:
                results.append(tuple(chosen))
                return
            need = n - len(chosen)
            for j in range(start, m - need + 1):
                nodes += 1
                if nodes > node_cap:
                    raise SearchCapExceeded(f"assembly explored more than {node_cap} nodes")
                v = cands[j]
                if not all(dot(cands[i], v) == 0 and dot(a_cands[i], v) in (0, lvl2)
                           for i in chosen):
                    continue
                bumped = [row_norms[r] + v[r] * v[r] for r in range(n)]
                if max(bumped) > lvl2:
                    continue
                saved = row_norms[:]
                row_norms[:] = bumped
                chosen.append(j)
                rec(j + 1)
                chosen.pop()
                row_norms[:] = saved

        rec(0)
        return results

    w = walk_matrix(g)
    a = g.adjacency()
    n = g.n
    classes = []
    seen = set()
    for level in sorted(set(int(x) for x in levels)):
        lvl2 = level * level
        cands = [v for v in enumerate_columns(g, level, walk=w) if dot(a.mat_vec(v), v) == 0]
        if len(cands) < n:
            continue
        a_cands = [a.mat_vec(v) for v in cands]
        for pick in assemble(cands, a_cands, n, lvl2):
            num = IntMatrix.from_columns([cands[j] for j in pick])
            if gcd(level, *num.entries) != 1:
                continue  # a lower-level matrix, found at its own level
            q = RatRegOrtho(num, level)
            if q.canonical_key() in seen:
                continue
            seen.add(q.canonical_key())
            classes.append(MateClass(q, conjugate(q, g), level, level == 1))
    return classes


# -- frozen modular eliminations (cross-checks for snf._diagonal_mod) --------


def snf_mod_pk_loop(mat, p, k):
    """(U, S, V) of the local-ring Smith elimination as row tuples.

    This is snf_mod_pk's own pivot loop before it moved onto the shared
    modular elimination, kept verbatim in its moves: pivot of least
    valuation in row-major order, its row scaled by the inverse of its unit
    part mod p^k, then exact clears of its column and its row. The shared
    elimination must reproduce U, S and V bit for bit.
    """
    q = p ** k
    nr, nc = len(mat), len(mat[0]) if mat else 0
    s = [[x % q for x in row] for row in mat]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def val(x):
        if x == 0:
            return k
        c = 0
        while x % p == 0:
            x //= p
            c += 1
        return c

    for t in range(min(nr, nc)):
        piv, best = None, k
        for i in range(t, nr):
            for j in range(t, nc):
                c = val(s[i][j])
                if c < best:
                    best, piv = c, (i, j)
                    if c == 0:
                        break
            if best == 0:
                break
        if piv is None:
            break
        i, j = piv
        s[t], s[i] = s[i], s[t]
        u[t], u[i] = u[i], u[t]
        for m in (s, v):
            for row in m:
                row[t], row[j] = row[j], row[t]
        uinv = pow(s[t][t] // p ** best, -1, q)
        s[t] = [uinv * x % q for x in s[t]]
        u[t] = [uinv * x % q for x in u[t]]
        pivot = p ** best
        for i in range(t + 1, nr):
            c = s[i][t] // pivot
            if c:
                s[i] = [(x - c * y) % q for x, y in zip(s[i], s[t])]
                u[i] = [(x - c * y) % q for x, y in zip(u[i], u[t])]
        for j in range(t + 1, nc):
            c = s[t][j] // pivot
            if c:
                for m in (s, v):
                    for row in m:
                        row[j] = (row[j] - c * row[t]) % q
    return tuple(map(tuple, u)), tuple(map(tuple, s)), tuple(map(tuple, v))


def enumerate_columns_snf_int(g, level, cap=10**6):
    """enumerate_columns with its kernel residues read off snf_int(W^T).

    The integer Smith form gives W^T's invariant factors d_i and a
    unimodular V; the kernel of W^T mod level is V y with y_i a multiple of
    level / gcd(d_i, level). Each residue is then walked over the box
    |v_i| <= level under the norm and sum conditions. Returns the sorted
    candidate list, or the SearchCapExceeded message as a string.
    """
    from walklevel.graphs import walk_matrix
    from walklevel.snf import snf_int

    n = g.n
    res = snf_int(walk_matrix(g).T)
    assert res.rank == n, "oracle needs a controllable graph"
    gcds = [gcd(d, level) for d in res.invariant_factors]
    total = 1
    for gi in gcds:
        total *= gi
    if total > cap:
        return f"kernel of W^T mod {level} has more than {cap} residue classes"
    vt = res.V.T.data
    lvl2 = level * level
    out = []

    def walk(options, chosen, norm_left, sum_left):
        if len(chosen) == n:
            if norm_left == 0 and sum_left == 0:
                out.append(tuple(chosen))
            return
        rest = n - len(chosen) - 1
        for x in options[len(chosen)]:
            nl, sl = norm_left - x * x, sum_left - x
            if nl >= 0 and sl * sl <= rest * nl:  # Cauchy-Schwarz on the rest
                walk(options, chosen + [x], nl, sl)

    for idx in product(*(range(gi) for gi in gcds)):
        y = [i * (level // gi) for i, gi in zip(idx, gcds)]
        residue = [sum(vt[j][i] * y[j] for j in range(n)) % level for i in range(n)]
        walk([sorted({r, r - level} if r else {0, -level, level}) for r in residue],
             [], lvl2, level)
    if len(out) > cap:
        return f"more than {cap} column candidates at level {level}"
    return sorted(out)


# -- frozen lemma checks (reference for bounds.verify_proof_lemmas) ----------


def verify_proof_lemmas_ref(g, witness):
    """verify_proof_lemmas as it was with one Smith form per matrix.

    Frozen from its earlier body: the augmented shape comes from a second
    snf_mod_pk, of [A - lambda0 I | z0], and z1 at c = tau from extend_basis
    completing {z0} to the kernel basis, which raises ValueError for a z0
    outside the kernel. Returns the same LemmaCheckReport.
    """
    from walklevel.arith import v_p
    from walklevel.bounds import LemmaCheckReport
    from walklevel.graphs import walk_matrix
    from walklevel.intmat import IntMatrix
    from walklevel.snf import _kernel, _solve, extend_basis, invariant_factors, snf_mod_pk

    p, tau, z0, lam = witness.prime, witness.tau, witness.z0, witness.lambda0
    n = g.n
    if n < 3:
        raise ValueError("lemma verification needs n >= 3")
    q = p ** tau
    w = walk_matrix(g)
    b = g.adjacency() - lam * IntMatrix.identity(n)
    notes = []

    fs = invariant_factors(b)
    f = list(fs) + [0] * (n - len(fs))
    over_z_ok = (f[n - 3] != 0 and f[n - 3] % p != 0) and (
        f[n - 1] == 0 or f[n - 1] % q == 0
    )

    res_mod = snf_mod_pk(b, p, tau)
    fac = res_mod.invariant_factors
    mod_ok = len(fac) >= n - 2 and all(x == 1 for x in fac[: n - 2]) and len(fac) <= n - 1
    c_shape = v_p(fac[n - 2], p) if len(fac) == n - 1 else tau
    if not mod_ok:
        notes.append(f"shifted Smith form mod {p}^{tau} has factors {fac}")

    res_aug = snf_mod_pk(augment_column(b, z0), p, tau)
    aug_ok = res_aug.invariant_factors == (1,) * (n - 1)
    if not aug_ok:
        notes.append(f"augmented Smith form factors {res_aug.invariant_factors}")

    z1 = c_found = None
    eq_ok = sum_ok = False
    for c_try in range(tau + 1):
        if c_try == tau:
            ks = _kernel(res_mod)
            if ks.torsion_exponents or ks.free_rank != 2 or ks.free_basis is None:
                notes.append(
                    f"kernel shape unexpected: torsion {ks.torsion_exponents}, "
                    f"free rank {ks.free_rank}"
                )
                break
            z1 = extend_basis([z0], list(ks.free_basis), p, tau)[1]
            c_found = tau
            break
        x = _solve(res_mod, tuple((p ** c_try * v) % q for v in z0))
        if x is not None:
            z1, c_found = x, c_try
            break
    if z1 is not None:
        rhs = tuple((p ** c_found * v) % q for v in z0)
        eq_ok = tuple(x % q for x in b.mat_vec(z1)) == rhs
        sum_ok = sum(z1) % p != 0
        if c_found != c_shape:
            notes.append(f"first solvable exponent {c_found} != shape exponent {c_shape}")
    else:
        notes.append("no z1 found at any exponent")

    def walk_congruence(y):
        ey, lam_pow = sum(y), 1
        for lhs in w.T.mat_vec(y):
            if (lhs - ey * lam_pow) % q:
                return False
            lam_pow *= lam
        return True

    walk_ok = walk_congruence(z0) and (z1 is None or walk_congruence(z1))
    return LemmaCheckReport(
        prime=p, tau=tau, lambda0=lam, c=c_found,
        shifted_snf_over_z_ok=over_z_ok,
        shifted_snf_mod_ok=mod_ok and c_found == c_shape,
        augmented_snf_ok=aug_ok,
        z1=z1, z1_equation_ok=eq_ok, z1_unit_sum_ok=sum_ok,
        walk_congruence_ok=walk_ok,
        notes=tuple(notes),
    )


# -- frozen eigenvalue lift (reference for extract_four_cong_witness) ---------


def solve_eigenvalue_mod_ref(a, z, p, tau):
    """The unique lambda mod p^tau with A z = lambda z (mod p^tau).

    Frozen from the digit-by-digit lift that extract_four_cong_witness used
    before it read lambda0 off one inverse: each step solves one residue mod
    p at a unit coordinate of z and checks the whole vector, raising
    ValueError at the first digit with no solution.
    """
    from walklevel.errors import InvariantError

    pivot = next((i for i, x in enumerate(z) if x % p), None)
    if pivot is None:
        raise ValueError("z is divisible by p; eigenvalue is not determined")
    inv = pow(z[pivot] % p, -1, p)
    az = a.mat_vec(z)
    lam = 0
    for j in range(tau):
        pj = p ** j
        resid = [(az[i] - lam * z[i]) for i in range(len(z))]
        if any(r % pj for r in resid):
            raise InvariantError("eigenvalue lift lost an already-verified digit")
        digit = ((resid[pivot] // pj) * inv) % p
        lam += digit * pj
        if any((az[i] - lam * z[i]) % (pj * p) for i in range(len(z))):
            raise ValueError(
                f"A z = lambda z has no solution mod {p}^{j + 1}; "
                "hypotheses are violated"
            )
    return lam


# -- frozen draw and validator (references for the sweep's per-draw fast paths)


def random_graph_below(rng, n, prob_num, prob_den):
    """Adjacency rows of one binomial random graph, one ``rng.below`` per pair.

    Frozen from the sweep's draw before it ran the SplitMix64 steps inline:
    pair (i, j), i < j, taken in lexicographic order, is an edge when
    ``rng.below(prob_den) < prob_num``.
    """
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(prob_den) < prob_num:
                adj[i][j] = adj[j][i] = 1
    return tuple(tuple(row) for row in adj)


def unmix64(out):
    """The SplitMix64 state whose next output is ``out``: mix64 inverted step by step."""
    mask = (1 << 64) - 1

    def unshift(z, s):  # inverts z ^ (z >> s)
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x

    z = unshift(out, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


def graph_error_ref(adj):
    """(type name, message) of the error Graph(adj) raises, or None if it accepts.

    Frozen from Graph's validator before it checked whole matrices first:
    the rows are converted with int, then walked entry by entry, and the
    first fault met decides the error.
    """
    try:
        adj = tuple(tuple(int(x) for x in row) for row in adj)
        n = len(adj)
        for i, row in enumerate(adj):
            if len(row) != n:
                raise ValueError("adjacency matrix is not square")
            if row[i] != 0:
                raise ValueError("diagonal must be zero")
            for j, x in enumerate(row):
                if x not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                if x != adj[j][i]:
                    raise ValueError("adjacency matrix must be symmetric")
    except (ValueError, IndexError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return None


# -- frozen trial division (reference for arith.factorize) -------------------


def factorize_ref(n, budget=10**6):
    """{prime: exponent} of |n|, with the keys in the order they are found.

    Frozen from ``arith.factorize`` before it took one gcd against the
    product of the trial primes: 2, 3, 5, then a mod-30 wheel of trial
    divisors up to 10^4, then arith's own Brent rho on what is left.
    """
    from walklevel.arith import _pollard_brent, is_prime
    from walklevel.errors import FactorizationError

    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d <= 10**4:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    if d * d > n:
        out[n] = out.get(n, 0) + 1
        return out

    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = None
        for seed in range(8):
            f = _pollard_brent(m, budget, seed)
            if f is not None and 1 < f < m:
                break
            f = None
        if f is None:
            raise FactorizationError(abs(n), out, m)
        stack.append(f)
        stack.append(m // f)
    return out
