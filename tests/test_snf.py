"""Smith forms over Z and Z/p^kZ against gcd-of-minors and exhaustive oracles."""

import hashlib
import json
import random
import warnings
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    all_vectors_mod,
    augment_column,
    det_cofactor,
    exhaustive_kernel_count,
    exhaustive_solvable,
    exhaustive_unit_kernel_exists,
    invariant_factors_mod_det,
    matvec_mod,
    minor_gcd,
    snf_mod_pk_loop,
    solvable_by_factor_match,
)
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix
from walklevel import intmat, snf
from walklevel.arith import v_p
from walklevel.errors import InvariantError
from walklevel.fixtures import load_matrix
from walklevel.graphs import parse_graph6, walk_matrix, walk_profile
from walklevel.intmat import IntMatrix, _bareiss, _odd_part, det
from walklevel.snf import (
    _augmented_factors,
    _diagonal_mod,
    _factors_from_block,
    _identity,
    _kernel_generators,
    _kernel_mod,
    _solve,
    dn_test,
    extend_basis,
    invariant_factors,
    kernel_shape,
    rank_mod_p,
    snf_int,
    snf_mod_pk,
    solvable_mod_pk,
)
from walklevel.sweep import SweepConfig, derive_stream, random_graph, sweep_one

DIAG_FIXTURE = IntMatrix.diag([2, 10, 30, 270])


def reduced(m, q):
    """The rows of m with every entry reduced into [0, q)."""
    return [[x % q for x in row] for row in m.data]


def rand_matrix(rng, nr, nc, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)])


def seeded_graph(seed, n):
    """The first controllable G(n, 1/2) draw of a seeded stream."""
    for attempt in range(1000):
        g = random_graph(derive_stream(seed, n, attempt), n, 1, 2)
        if det(walk_matrix(g)):
            return g
    raise AssertionError("no controllable draw")


def seeded_walk_matrix(seed, n):
    """Walk matrix of the first controllable G(n, 1/2) draw of a seeded stream."""
    return walk_matrix(seeded_graph(seed, n))


def local_systems(rng, count):
    """Seeded (m, b, p, k) with p in {3, 5, 7}, k <= 3, up to 4 x 4 and
    rectangular, about a third of the entries zero and another third
    multiples of p; b is m times a random x half the time (solvable)."""
    out = []
    for _ in range(count):
        p, k = rng.choice((3, 5, 7)), rng.randint(1, 3)
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix([[rng.choice((0, p * rng.randint(-p, p), rng.randint(-9, 9)))
                        for _ in range(nc)] for _ in range(nr)])
        if rng.random() < 0.5:
            b = m.mat_vec([rng.randrange(p ** k) for _ in range(nc)])
        else:
            b = tuple(rng.choice((0, p ** rng.randint(0, k) * rng.randint(-9, 9)))
                      for _ in range(nr))
        out.append((m, b, p, k))
    return out


def sympy_factors(m):
    """Nonzero invariant factors from sympy, made positive."""
    out = sympy_invariant_factors(Matrix([list(r) for r in m.data]), domain=ZZ)
    return tuple(abs(int(x)) for x in out if x)


def twos_of(factors, n):
    """v_2 of the first n - 1 invariant factors."""
    return tuple(v_p(f, 2) for f in factors[:n - 1])


def check_int_snf_invariants(m, res):
    assert res.U @ m @ res.V == res.S
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    f = res.invariant_factors
    assert all(x > 0 for x in f)
    assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
    # S is diagonal-rectangular with exactly the factors on the diagonal
    for i in range(m.rows):
        for j in range(m.cols):
            expect = f[i] if i == j and i < len(f) else 0
            assert res.S[i, j] == expect


class TestSnfInt:
    def test_simple_diagonal(self):
        # the pivots 2, 3 fail to divide: the gcd/lcm move acts on U and V
        res = snf_int(IntMatrix([[2, 0], [0, 3]]))
        assert res.invariant_factors == (1, 6)
        assert (res.U.data, res.V.data) == (((1, 1), (-3, -2)), ((-1, -3), (1, 2)))

    def test_exact_clears_keep_the_pivot(self):
        # 3 divides 3: a clear, where an extended-gcd step would swap
        res = snf_int(IntMatrix([[3, 3], [3, 3]]))
        assert res.S.data == ((3, 0), (0, 0))
        assert (res.U.data, res.V.data) == (((1, 0), (-1, 1)), ((1, -1), (0, 1)))

    def test_fixture_transforms_pinned(self):
        # the (U, S, V) that walklevel snf prints for each bundled matrix,
        # as the sha256 of its canonical JSON
        pinned = {
            "g10_adjacency.txt":
                "d485b3cf8faa8c06b36c4aa63d4793173405c95dfe0c4696ed5a3727ebfdfa65",
            "g10_qhat_level3.txt":
                "f157c24fd61201c9181ce0d6615019ca1b74f0c26180b50b30749ea2d3772496",
            "g10_qhat_level9.txt":
                "aeb0c109554cdd51a2ed43d6d0a6570b5adcd85c6d78c6768ae71591ab0ddf1d",
        }
        for name, digest in pinned.items():
            res = snf_int(load_matrix(name))
            text = json.dumps({"U": res.U.data, "S": res.S.data, "V": res.V.data},
                              sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, name

    def test_zero_matrix(self):
        res = snf_int(IntMatrix([[0] * 2] * 3))
        assert res.invariant_factors == ()
        assert res.S == IntMatrix([[0] * 2] * 3)

    def test_minor_gcd_oracle_random(self):
        rng = random.Random(2024)
        for _ in range(60):
            m = rand_matrix(rng, 4, 4)
            res = snf_int(m)
            check_int_snf_invariants(m, res)
            prod = 1
            rows = [list(r) for r in m.data]
            for k in range(1, 5):
                g = minor_gcd(rows, k)
                if k <= res.rank:
                    prod *= res.invariant_factors[k - 1]
                    assert prod == g
                else:
                    assert g == 0

    def test_rectangular_shapes(self):
        rng = random.Random(5)
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = rand_matrix(rng, nr, nc)
            check_int_snf_invariants(m, snf_int(m))

    def test_negative_factors_normalized(self):
        res = snf_int(IntMatrix([[-5]]))
        assert res.invariant_factors == (5,)


class TestInvariantFactors:
    def test_matches_snf_int_on_walk_matrices(self):
        for n in (6, 9, 12, 16, 20, 24):
            for seed in (1, 2):
                w = seeded_walk_matrix(seed, n)
                assert invariant_factors(w) == snf_int(w).invariant_factors

    def test_matches_sympy_on_walk_matrices(self):
        for n in (8, 12, 16):
            w = seeded_walk_matrix(3, n)
            assert invariant_factors(w) == sympy_factors(w)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.lists(st.sampled_from([0, 1, -1, 2, 3, -4, 6, 9, 12, -18, 25, 27]),
                 min_size=36, max_size=36),
    )
    def test_matches_sympy_random(self, nr, nc, pool):
        # square or not, singular or not
        m = IntMatrix([pool[i * 6:i * 6 + nc] for i in range(nr)])
        assert invariant_factors(m) == sympy_factors(m)

    def test_minor_gcd_oracle(self):
        # mixed small primes make most pivots non-units, so the extended-gcd
        # steps and the divisor-chain ordering both run
        rng = random.Random(2025)
        for _ in range(40):
            n = rng.randint(2, 6)
            m = IntMatrix([[rng.choice([0, 2, 3, 4, 6, 9, -6, 12]) for _ in range(n)]
                           for _ in range(n)])
            factors = invariant_factors(m)
            rows = [list(r) for r in m.data]
            prod = 1
            for k in range(1, n + 1):
                g = minor_gcd(rows, k)
                if k <= len(factors):
                    prod *= factors[k - 1]
                    assert prod == g
                else:
                    assert g == 0

    def test_unimodular(self):
        for m in (IntMatrix([[2, 1], [1, 1]]), IntMatrix([[1, 2], [1, 1]])):
            assert det(m) in (1, -1)
            assert invariant_factors(m) == (1, 1)

    def test_negative_det(self):
        m = IntMatrix([[0, 2, 0], [3, 0, 0], [0, 0, 5]])
        assert det(m) == -30
        assert invariant_factors(m) == invariant_factors(-m) == (1, 1, 30)

    def test_one_by_one(self):
        assert invariant_factors(IntMatrix([[-5]])) == (5,)
        assert invariant_factors(IntMatrix([[7]])) == (7,)
        assert invariant_factors(IntMatrix([[0]])) == ()

    def test_trailing_block_zero_mod_det(self):
        # M = 1 here, so the whole trailing block is zero modulo M
        m = IntMatrix.diag([1, 1, 5])
        assert _bareiss(m.data)[1] == 1
        assert invariant_factors(m) == (1, 1, 5)
        assert invariant_factors(DIAG_FIXTURE) == (2, 10, 30, 270)

    def test_singular(self):
        m = IntMatrix([[2, 4, 6], [1, 2, 3], [0, 6, 9]])
        assert det(m) == 0
        assert invariant_factors(m) == snf_int(m).invariant_factors == sympy_factors(m)

    def test_rectangular(self):
        rng = random.Random(6)
        for _ in range(30):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_matrix(rng, nr, nc)
            assert invariant_factors(m) == snf_int(m).invariant_factors


def sympy_det(m):
    return int(DomainMatrix([[ZZ(x) for x in row] for row in m.data], (m.rows, m.cols), ZZ).det())


class TestMinorGcdModulus:
    """invariant_factors(m) of a nonsingular m eliminates modulo the odd
    part of M = gcd(|det|, h), which _bareiss returns, and recomputes d_n
    from det."""

    def test_matches_det_modulus_snf_int_and_sympy_on_walk_matrices(self):
        for n in (6, 12, 16, 24, 32, 40):
            for seed in (1, 2, 3):
                w = seeded_walk_matrix(seed, n)
                got = invariant_factors(w)
                d = sympy_det(w)
                assert got == invariant_factors_mod_det(w.data, d)
                if seed == 1 and n <= 32:
                    assert got == snf_int(w).invariant_factors
                # snf_int and sympy take seconds from n = 32 on; at n = 40
                # the mod-|det| oracle stands alone
                if seed == 2 and n <= 32:
                    assert got == sympy_factors(w)
                if n >= 24:
                    # the modulus is a small fraction of |det W|
                    assert 4 * _bareiss(w.data)[1].bit_length() < abs(d).bit_length()

    def test_last_factor_recomputed_from_det(self, count_calls):
        # M = 600 = 2^3 * 3 * 5^2: the pivots give v_2 of d_1..d_3 alone, and
        # the one elimination, modulo the odd part 75, reads the odd parts;
        # there the last factor reads gcd(270, 75) = 15, not 135
        calls = count_calls(snf._diagonal_mod)
        d, modulus, _, _, twos = _bareiss(DIAG_FIXTURE.data)
        assert (d, modulus, twos) == (2 * 10 * 30 * 270, 600, (1, 1, 1))
        assert invariant_factors(DIAG_FIXTURE) == (2, 10, 30, 270)
        assert [max(map(max, rows)) < 75 for rows in calls] == [True]

    def test_negative_det_and_small_orders(self):
        cases = [
            ([[0, 2, 0], [3, 0, 0], [0, 0, 5]], (1, 1, 30)),
            ([[0, 4, 0], [6, 0, 0], [0, 0, -10]], (2, 2, 60)),
            ([[-5]], (5,)),
            ([[6]], (6,)),
            ([[4, 6], [10, 8]], (2, 14)),
            ([[0, -1], [-1, 0]], (1, 1)),
            ([[2, 1], [1, 1]], (1, 1)),
            ([], ()),
        ]
        for rows, factors in cases:
            m = IntMatrix(rows)
            assert invariant_factors(m) == factors
            if rows:
                assert factors == sympy_factors(m)
                assert _bareiss(rows)[4] == twos_of(factors, len(rows))

    def test_singular_takes_the_integer_path(self, count_calls):
        blocks = count_calls(snf._factors_from_block)
        for m in (IntMatrix([[2, 4, 6], [1, 2, 3], [0, 6, 9]]), IntMatrix([[0] * 3] * 3),
                  IntMatrix([[1, 2]]), IntMatrix([[0] * 2] * 3), IntMatrix(())):
            assert invariant_factors(m) == snf_int(m).invariant_factors
        assert blocks == []

    def test_inconsistent_det_raises(self):
        # a det that does not belong to the valuations and the block
        rows = IntMatrix.diag([2, 2, 2]).data
        with pytest.raises(InvariantError):  # 6 / (2 * 2) leaves a remainder
            _factors_from_block(6, 2, 0, rows, (1, 1))
        with pytest.raises(InvariantError):  # d_n = 4 / (2 * 2) = 1 is not a multiple of 2
            _factors_from_block(4, 4, 0, rows, (1, 1))
        # the same two faults when the odd part of M carries the factors
        rows = IntMatrix.diag([3, 3, 3]).data
        with pytest.raises(InvariantError):  # 15 / (3 * 3) leaves a remainder
            _factors_from_block(15, 3, 0, rows, (0, 0))
        with pytest.raises(InvariantError):  # d_n = 18 / (3 * 3) = 2 is not a multiple of 3
            _factors_from_block(18, 9, 0, rows, (0, 0))


def leading_minor(rows, k, extra_row=None, extra_col=None):
    """det of the leading k x k block, bordered by one more row and column."""
    ri = list(range(k)) + ([extra_row] if extra_row is not None else [])
    ci = list(range(k)) + ([extra_col] if extra_col is not None else [])
    return det_cofactor([[rows[i][j] for j in ci] for i in ri])


def odd_leading_minors(rng, n):
    """L * diag(c) * U with L, U unit triangular and c_1, ..., c_(n-1) odd:
    every leading minor D_1, ..., D_(n-1) is odd, so the least 2-adic
    valuation of each trailing block sits at (k, k) and no swap is taken."""
    lo = [[1 if i == j else rng.randint(-3, 3) if j < i else 0 for j in range(n)]
          for i in range(n)]
    up = [[1 if i == j else rng.randint(-3, 3) if j > i else 0 for j in range(n)]
          for i in range(n)]
    c = [rng.choice((1, 1, 3, 5, 9, 15, -3)) for _ in range(n - 1)]
    c.append(rng.choice((1, 2, 3, 4, 6, 12, 30)))
    return (IntMatrix(lo) @ IntMatrix.diag(c) @ IntMatrix(up)).data


class TestBareissTrailingBlock:
    """intmat._bareiss returns (det, M, k, T_k, v): v holds v_2 of d_1, ...,
    d_(n-1), W is I_k (+) T_k modulo the odd part m of M = gcd(|det|, h),
    and snf._factors_from_block reads the invariant factors off v and T_k."""

    def test_walk_matrices_match_snf_int_and_sympy(self):
        for n in (6, 9, 12, 16, 20, 24):
            for seed in (1, 2):
                w = seeded_walk_matrix(seed, n)
                d, modulus, k, block, twos = _bareiss(w.data)
                assert d == det(w) and d % modulus == 0
                assert 1 <= k < n and len(block) == len(block[0]) == n - k
                got = _factors_from_block(d, modulus, k, block, twos)
                assert got == snf_int(w).invariant_factors == invariant_factors(w)
                assert twos == twos_of(got, n)
                if n <= 16:
                    assert got == sympy_factors(w)

    def test_block_is_the_bordered_minors_and_k_is_largest(self):
        # with D_1, ..., D_(n-1) odd no row or column swap is taken, so T_k
        # holds the (k+1)-minors of the matrix itself (Sylvester's identity)
        rng = random.Random(19)
        seen = set()
        for _ in range(60):
            n = rng.randint(2, 6)
            rows = odd_leading_minors(rng, n)
            minors = [leading_minor(rows, j) for j in range(1, n)]
            d, modulus, k, block, twos = _bareiss(rows)
            odd = _odd_part(modulus)
            assert twos == (0,) * (n - 1)
            assert k == 0 or gcd(minors[k - 1], odd) == 1
            assert all(gcd(m, odd) > 1 for m in minors[k:])
            assert [list(r) for r in block] == [
                [leading_minor(rows, k, k + a, k + b) for b in range(n - k)] for a in range(n - k)]
            assert _factors_from_block(d, modulus, k, block, twos) == sympy_factors(IntMatrix(rows))
            seen.add((k == 0, k == n - 1))
        assert seen == {(True, False), (False, False), (False, True)}

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3, -4, 6, 9]), min_size=36, max_size=36),
    )
    def test_zero_pivots_match_sympy(self, n, pool):
        rows = [pool[i * 6:i * 6 + n] for i in range(n)]
        d, modulus, k, block, twos = _bareiss(rows)
        if not d:
            return
        assert len(block) == n - k
        factors = sympy_factors(IntMatrix(rows))
        assert _factors_from_block(d, modulus, k, block, twos) == factors
        assert twos == twos_of(factors, n)

    def test_no_pivot_prime_to_the_modulus(self):
        # every entry of 3I + 3P is a multiple of 3, so every pivot and, from
        # n = 2 on, the odd part of M are too, and k = 0
        rng = random.Random(31)
        seen = 0
        for _ in range(30):
            n = rng.randint(2, 6)
            m = IntMatrix([[3 * (i == j) + 3 * rng.randint(-3, 3) for j in range(n)]
                           for i in range(n)])
            d, modulus, k, block, twos = _bareiss(m.data)
            if not d:
                continue
            assert k == 0 and block is m.data and modulus % 3 == 0
            got = _factors_from_block(d, modulus, k, block, twos)
            assert got == snf_int(m).invariant_factors == sympy_factors(m)
            seen += 1
        assert seen >= 20

    def test_small_orders_and_unit_det(self):
        cases = [
            ([[-5]], 0, (5,)),
            ([[4, 6], [10, 8]], 1, (2, 14)),  # M = 2: its odd part 1 leaves no block
            ([[1, 2], [3, 4]], 1, (1, 2)),
            ([[2, 1], [1, 1]], 1, (1, 1)),  # det 1: M = 1, every pivot is a unit
            ([[0, 1, 0], [1, 0, 0], [0, 0, -1]], 2, (1, 1, 1)),
            ([[0, 2, 0], [3, 0, 0], [0, 0, 5]], 0, (1, 1, 30)),  # M = 3 and D_1 = 3
            ([[2, 1], [4, 3]], 1, (1, 2)),  # a column swap; M = 1
        ]
        for rows, k, factors in cases:
            el = _bareiss(rows)
            assert el[2] == k, rows
            assert _factors_from_block(*el) == factors == invariant_factors(IntMatrix(rows))

    def test_leading_block_is_not_eliminated_twice(self, count_calls):
        # a profile runs the modular elimination on the n - k rows of T_k
        # exactly when the odd part m of M is not 1, and otherwise not at all
        calls = count_calls(snf._diagonal_mod)
        config = SweepConfig(n_min=6, n_max=16, seed=42, mates=False)
        graphs = [parse_graph6(sweep_one(config, i)["graph6"]) for i in range(22)]
        for seed in range(4):
            graphs.append(seeded_graph(seed, 24))
            walk_profile(graphs[-1], primes=(3,))
        sizes = []
        for g in graphs:
            _, modulus, k, _, _ = _bareiss(walk_matrix(g).data)
            assert k >= 1
            if _odd_part(modulus) > 1:
                sizes.append(g.n - k)
        assert [(len(rows), len(rows[0])) for rows in calls] == [(s, s) for s in sizes]
        assert 0 < len(sizes) < len(graphs)


class TestTwoAdicPivots:
    """intmat._bareiss pivots on an entry of least 2-adic valuation, so its
    pivots give v_2(d_1), ..., v_2(d_(n-1)); snf._factors_from_block
    multiplies them into the odd parts from the block modulo M's odd part."""

    def test_valuations_on_walk_matrices(self):
        for n in (6, 7, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40):
            for seed in (1, 2, 3):
                w = seeded_walk_matrix(seed, n)
                twos = _bareiss(w.data)[4]
                # sympy takes seconds to minutes from n = 36 on; there the
                # mod-|det| oracle stands alone
                if n <= 32 and seed == 1:
                    assert twos == twos_of(sympy_factors(w), n)
                assert twos == twos_of(invariant_factors_mod_det(w.data, sympy_det(w)), n)

    def test_whole_block_scan_only_where_the_valuation_rises(self, count_calls):
        # the least valuation of a block is at least the previous pivot's, so
        # when the valuation rises no entry of column k meets the old bound
        # and the whole block is scanned; when it does not rise, column k
        # (almost) always holds such an entry on walk matrices
        scans = count_calls(intmat._least_valuation)
        ws = [seeded_walk_matrix(seed, n) for n in (8, 12, 16, 24, 32) for seed in (1, 2, 3)]
        del scans[:]
        rises = 0
        for w in ws:
            twos = _bareiss(w.data)[4]
            rises += sum(b > a for a, b in zip((0, *twos), twos))
        assert rises <= len(scans) <= rises + len(ws)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=n, max_size=n),
                st.lists(st.sampled_from([2 ** a * b for a in range(4) for b in (1, 3, 5)]),
                         min_size=n, max_size=n),
                st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_valuations_on_chained_matrices(self, abc):
        # A diag(c) B with each c_(i+1) / c_i a power of 2 times 1, 3 or 5
        a, steps, b = abc
        c, acc = [], 1
        for x in steps:
            acc *= x
            c.append(acc)
        m = IntMatrix(a) @ IntMatrix.diag(c) @ IntMatrix(b)
        d, factors = snf._det_and_factors(m.data)
        if not d:
            return
        n = m.rows
        assert factors == sympy_factors(m)
        assert _bareiss(m.data)[4] == twos_of(factors, n)

    def test_column_swap(self):
        # column 0 holds no odd entry, so column 1 is swapped in, with its sign
        for rows, factors in (([[2, 1], [4, 3]], (1, 2)),
                              ([[2, 1, 0], [4, 3, 0], [0, 0, 6]], (1, 2, 6)),
                              ([[4, 6, 1], [2, 0, 3], [8, 2, 5]], (1, 2, 32))):
            d, modulus, k, block, twos = _bareiss(rows)
            assert d == det_cofactor(rows) == det(IntMatrix(rows))
            assert twos == twos_of(factors, len(rows))
            assert _factors_from_block(d, modulus, k, block, twos) == factors
            assert factors == sympy_factors(IntMatrix(rows))

    def test_odd_modulus_block_carries_everything(self, count_calls):
        # odd det: every valuation is 0, and the factors come from the block
        calls = count_calls(snf._diagonal_mod)
        m = IntMatrix([[0, 3, 0, 0], [9, 0, 0, 0], [0, 0, 0, 45], [0, 0, 15, 0]])
        d, modulus, k, block, twos = _bareiss(m.data)
        assert modulus % 2 == 1 and twos == (0, 0, 0)
        assert invariant_factors(m) == (3, 3, 45, 45) == sympy_factors(m)
        assert len(calls) == 1


def divisor_chain(diag):
    """The Smith form of a diagonal matrix: gcd/lcm swaps into a chain."""
    diag = list(diag)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


class TestDiagonalMod:
    """The one modular elimination behind invariant_factors, snf_mod_pk and
    the kernel residues of enumerate_columns, at composite moduli."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([4, 6, 12, 40, 360]),
        st.integers(1, 5),
        st.integers(1, 5),
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3, 4, 5, 6, -8, 9, 10, 12, 15, 30, 36]),
                 min_size=25, max_size=25),
    )
    def test_transforms_and_factors(self, d, nr, nc, pool):
        m = IntMatrix([pool[i * 5:i * 5 + nc] for i in range(nr)])
        u, v = _identity(nr), _identity(nc)
        diag = _diagonal_mod([[x % d for x in row] for row in m.data], d, u, v)
        assert len(diag) == min(nr, nc)
        assert diag == divisor_chain(diag)
        assert all(d % x == 0 for x in diag)
        assert all(0 <= x < d for row in u + v for x in row)
        assert reduced(IntMatrix(u) @ m @ IntMatrix(v), d) == reduced(
            IntMatrix.diag(diag, nr, nc), d)
        assert gcd(det(IntMatrix(u)), d) == 1
        assert gcd(det(IntMatrix(v)), d) == 1
        factors = sympy_factors(m)
        expected = [gcd(f, d) for f in factors] + [d] * (min(nr, nc) - len(factors))
        assert divisor_chain(diag) == expected
        bare = _diagonal_mod([[x % d for x in row] for row in m.data], d)
        assert divisor_chain(bare) == expected

    def test_zero_and_empty_blocks(self):
        assert _diagonal_mod([[0, 0, 0], [0, 0, 0]], 12) == [12, 12]
        assert _diagonal_mod([[0], [4], [0]], 12) == [4]
        assert _diagonal_mod([[3, 0, 0], [0, 0, 0]], 12) == [3, 12]
        assert _diagonal_mod([], 12) == []
        v = _identity(3)
        assert _diagonal_mod([[0, 0, 6]], 12, None, v) == [6]
        assert v == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_snf_mod_pk_matches_frozen_local_loop(self):
        # snf_mod_pk must make exactly the moves of the frozen local-ring
        # loop: same pivots, unit scalings and clears, so U, S and V agree
        # entry for entry (sweep and mates records read lemma checks off U, V)
        rng = random.Random(88)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(1500):
                p, k = rng.choice([2, 3, 5, 7]), rng.randint(1, 4)
                nr, nc = rng.randint(1, 6), rng.randint(1, 6)
                pool = [0, 0, 1, -1, p, -p, p * p, 2 * p, p ** 3, rng.randint(-60, 60)]
                rows = [[rng.choice(pool) if rng.random() < 0.7 else rng.randint(-30, 30)
                         for _ in range(nc)] for _ in range(nr)]
                res = snf_mod_pk(IntMatrix(rows), p, k)
                assert (res.U.data, res.S.data, res.V.data) == snf_mod_pk_loop(rows, p, k)


class TestSnfModPk:
    def test_projection_fixture_mod3(self):
        res = snf_mod_pk(DIAG_FIXTURE, 3, 1)
        assert [res.S[i, i] for i in range(4)] == [1, 1, 0, 0]

    def test_projection_fixture_mod9(self):
        res = snf_mod_pk(DIAG_FIXTURE, 3, 2)
        assert [res.S[i, i] for i in range(4)] == [1, 1, 3, 0]

    def test_identity_fixed(self):
        for p, k in ((3, 1), (5, 2), (7, 3)):
            res = snf_mod_pk(IntMatrix.identity(3), p, k)
            assert res.S == IntMatrix.identity(3)

    def test_transform_invariants(self):
        rng = random.Random(8)
        for _ in range(60):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            p, k = rng.choice([(3, 1), (3, 2), (5, 2), (7, 1)])
            q = p**k
            m = rand_matrix(rng, nr, nc, -20, 20)
            res = snf_mod_pk(m, p, k)
            assert reduced(res.U @ m @ res.V, q) == reduced(res.S, q)
            assert det(res.U) % p != 0
            assert det(res.V) % p != 0
            for d in res.invariant_factors:
                assert d == p ** v_p(d, p) or d == 1  # pure power normal form
                assert 0 < d < q

    def test_projection_matches_integer_snf(self):
        # factors over Z/p^kZ are the integer factors with d -> p^min(v_p(d), k)
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 4)
            p, k = rng.choice([(3, 1), (3, 2), (5, 1), (5, 3)])
            m = rand_matrix(rng, n, n)
            ints = snf_int(m).invariant_factors
            expected = []
            for d in ints:
                c = min(v_p(d, p), k)
                if c < k:
                    expected.append(p**c)
            assert snf_mod_pk(m, p, k).invariant_factors == tuple(expected)

    def test_p2_flagged_but_valid(self):
        with pytest.warns(UserWarning):
            res = snf_mod_pk(IntMatrix([[2, 1], [0, 2]]), 2, 2)
        assert reduced(res.U @ IntMatrix([[2, 1], [0, 2]]) @ res.V, 4) == reduced(res.S, 4)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            snf_mod_pk(IntMatrix.identity(2), 6, 1)


class TestSolvable:
    def test_unsolvable_classic(self):
        ok, x = solvable_mod_pk(IntMatrix.diag([3, 1]), (1, 0), 3, 2)
        assert not ok and x is None

    def test_identity_always(self):
        ok, x = solvable_mod_pk(IntMatrix.identity(3), (4, 7, 2), 3, 2)
        assert ok and x == (4, 7, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solvable_mod_pk(IntMatrix.identity(3), (1, 2), 3, 1)

    def test_in_column_module(self):
        rng = random.Random(12)
        for _ in range(30):
            m = rand_matrix(rng, 3, 3)
            x0 = tuple(rng.randrange(9) for _ in range(3))
            b = matvec_mod([list(r) for r in m.data], x0, 9)
            ok, x = solvable_mod_pk(m, b, 3, 2)
            assert ok
            assert tuple(v % 9 for v in m.mat_vec(x)) == b

    def test_against_exhaustive(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = rand_matrix(rng, n, n)
            b = tuple(rng.randrange(9) for _ in range(n))
            ok, x = solvable_mod_pk(m, b, 3, 2)
            truth = exhaustive_solvable([list(r) for r in m.data], b, 3, 2)
            assert ok == truth
            if ok:
                assert tuple(v % 9 for v in m.mat_vec(x)) == tuple(v % 9 for v in b)

    def test_matches_factor_match(self):
        # the decision through U and S equals the factor match of M and
        # (M, b) it replaced, and exhaustive search on the tiny systems
        tiny = 0
        for m, b, p, k in local_systems(random.Random(14), 300):
            ok, x = solvable_mod_pk(m, b, p, k)
            assert ok == solvable_by_factor_match(m, b, p, k), (m, b, p, k)
            assert (x is not None) == ok
            if (p ** k) ** m.cols <= 729:
                tiny += 1
                assert ok == exhaustive_solvable([list(r) for r in m.data], b, p, k)
        assert tiny >= 50

    def test_reader_on_one_decomposition(self):
        # _solve on one SnfResult answers every right-hand side, and a
        # row beyond the rank with a nonzero residual has no solution
        for m, _, p, k in local_systems(random.Random(15), 60):
            q = p ** k
            if q ** m.cols > 729 or q ** m.rows > 2401:
                continue
            res = snf_mod_pk(m, p, k)
            mat = [list(r) for r in m.data]
            image = {matvec_mod(mat, x, q) for x in all_vectors_mod(q, m.cols)}
            for b in all_vectors_mod(q, m.rows):
                x = _solve(res, b)
                assert (x is not None) == (b in image)
                if x is not None:
                    assert matvec_mod(mat, x, q) == b
        res = snf_mod_pk(IntMatrix([[1, 2], [2, 4]]), 3, 1)
        assert res.rank == 1
        assert _solve(res, (1, 2)) is not None
        assert _solve(res, (1, 0)) is None


class TestAugmentedFactors:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(1, 5),
        st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3, 4, 5, 6, 7, 9, -8, 10,
                                  14, 16, 25, 27, 49, 81, 125]),
                 min_size=30, max_size=30),
    )
    def test_same_factors_as_the_augmented_form(self, p, k, nr, nc, pool):
        # [S | U z] has the factors of [M | z], rectangular and zero-heavy M too
        m = IntMatrix([pool[i * 5:i * 5 + nc] for i in range(nr)])
        z = pool[25:25 + nr]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # p = 2
            res = snf_mod_pk(m, p, k)
            want = snf_mod_pk(augment_column(m, z), p, k).invariant_factors
        assert _augmented_factors(res, z) == want


def kernel_size(ks, p):
    """|ker M| = q^free_rank * p^(sum of c_i) for a kernel of shape
    (+)_i Z/p^{c_i}Z (+) (Z/qZ)^free_rank, q = p^k."""
    return ks.modulus ** ks.free_rank * p ** sum(ks.torsion_exponents)


class TestKernelShape:
    def test_single_p(self):
        ks = kernel_shape(IntMatrix([[3]]), 3, 2)
        assert ks.torsion_exponents == (1,)
        assert ks.free_rank == 0
        assert kernel_size(ks, 3) == 3

    def test_corank_one_free(self):
        # units then one zero: free rank 1 with an explicit basis
        m = IntMatrix.diag([1, 1, 9])
        ks = kernel_shape(m, 3, 2)
        assert ks.torsion_exponents == ()
        assert ks.free_rank == 1
        assert ks.free_basis is not None and len(ks.free_basis) == 1
        z = ks.free_basis[0]
        assert any(x % 3 for x in z)
        assert all(v % 9 == 0 for v in m.mat_vec(z))

    def test_exhaustive_count(self):
        rng = random.Random(21)
        for _ in range(25):
            m = rand_matrix(rng, 2, 3)
            ks = kernel_shape(m, 3, 2)
            assert kernel_size(ks, 3) == exhaustive_kernel_count([list(r) for r in m.data], 3, 2)

    def test_free_basis_spans(self):
        # when the kernel is free, every exhaustive kernel vector must be a
        # combination of the basis: compare sizes and membership
        m = IntMatrix([[1, 2, 0], [0, 3, 0]])
        ks = kernel_shape(m, 3, 1)
        count = exhaustive_kernel_count([list(r) for r in m.data], 3, 1)
        assert kernel_size(ks, 3) == count


class TestKernelGenerators:
    """_kernel_generators against all of (Z/mZ)^n, composite m and wide M included."""

    @staticmethod
    def check(rows, m):
        cols = len(rows[0])
        pairs = _kernel_mod(rows, cols, m)
        kernel = {z for z in all_vectors_mod(m, cols) if not any(matvec_mod(rows, z, m))}
        for order, z in pairs:
            assert order > 1 and m % order == 0
            assert not any(matvec_mod(rows, z, m))
            # exactly of its order: order * z = 0, and (order / r) * z != 0
            # for every prime r dividing the order
            assert all(order * x % m == 0 for x in z)
            for r in range(2, order + 1):
                if order % r == 0 and all(r % s for s in range(2, r)):
                    assert any(order // r * x % m for x in z)
        assert prod(order for order, _ in pairs) == len(kernel)
        span = {(0,) * cols}
        for order, z in pairs:
            span = {tuple((a + c * b) % m for a, b in zip(y, z))
                    for y in span for c in range(order)}
        assert span == kernel
        return pairs

    @pytest.mark.parametrize("m", range(2, 37))
    def test_against_exhaustive_kernel(self, m):
        rng = random.Random(m)
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        for _ in range(15):
            nr = rng.randint(1, 3)
            nc = rng.randint(1, 3 if m <= 15 else 2)
            rows = [[rng.choice((0, rng.randrange(m), rng.choice(divisors) * rng.randrange(m)))
                     for _ in range(nc)] for _ in range(nr)]
            self.check(rows, m)

    @pytest.mark.parametrize("m", [6, 12, 36])
    def test_more_columns_than_rows(self, m):
        rng = random.Random(100 + m)
        for _ in range(20):
            nc = rng.randint(2, 3 if m <= 12 else 2)
            rows = [[rng.randrange(m) for _ in range(nc)] for _ in range(rng.randint(1, nc - 1))]
            pairs = self.check(rows, m)
            # one free cyclic summand of order m at least per surplus column
            assert sum(order == m for order, _ in pairs) >= nc - len(rows)

    def test_trivial_modulus_and_zero_matrix(self):
        assert self.check([[3, 5]], 1) == []
        assert [order for order, _ in self.check([[0, 0], [0, 0]], 12)] == [12, 12]
        # trailing entries m of the diagonal may be left off
        assert _kernel_generators([1], [[1, 0], [0, 1]], 9) == [(9, (0, 1))]

    def test_each_reader_builds_generators_once(self, count_calls):
        from walklevel.matesearch import enumerate_columns

        calls = count_calls(snf._kernel_generators)
        enumerate_columns(walk_profile(seeded_graph(5, 8), ()), 4)
        assert len(calls) == 1
        for m in (IntMatrix.diag([1, 3]), IntMatrix.diag([1, 9])):
            dn_test(m, 3, 1)
        assert len(calls) == 3
        kernel_shape(IntMatrix.diag([1, 1, 9]), 3, 2)
        snf._kernel(snf_mod_pk(IntMatrix.diag([1, 3, 9]), 3, 2))
        assert len(calls) == 5


class TestDnTest:
    def test_divides(self):
        ok, z = dn_test(IntMatrix.diag([1, 3]), 3, 1)
        assert ok
        assert any(x % 3 for x in z)
        assert all(v % 3 == 0 for v in IntMatrix.diag([1, 3]).mat_vec(z))

    def test_does_not_divide(self):
        ok, z = dn_test(IntMatrix.diag([1, 3]), 3, 2)
        assert not ok and z is None

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            dn_test(IntMatrix([[0] * 3] * 2), 3, 1)

    def test_composite_p_rejected(self):
        # z = (0, 2) solves diag(1, 2) z = 0 (mod 4) with z != 0 (mod 4), but
        # "a unit mod p" means nothing for p = 4
        with pytest.raises(ValueError):
            dn_test(IntMatrix.diag([1, 2]), 4, 1)

    @pytest.mark.parametrize("p, k", [(1, 1), (0, 1), (9, 2), (3, 0), (5, -1)])
    def test_bad_p_or_k_rejected(self, p, k):
        with pytest.raises(ValueError):
            dn_test(IntMatrix.diag([1, 3]), p, k)

    def test_tall_matrices(self, count_calls):
        from walklevel import intmat, snf

        integer_forms = count_calls(snf.snf_int)
        rng = random.Random(31)
        for _ in range(20):
            m = rand_matrix(rng, 4, 2)
            for p, k in ((3, 1), (5, 2), (2, 2)):
                ok, z = dn_test(m, p, k)
                truth = exhaustive_unit_kernel_exists([list(r) for r in m.data], p, k)
                assert ok == truth
                if ok:
                    assert any(x % p for x in z)
                    assert all(v % p**k == 0 for v in m.mat_vec(z))
        assert integer_forms == []  # the local form with V alone

    def test_against_exhaustive_random(self):
        rng = random.Random(32)
        for _ in range(60):
            n = rng.randint(1, 3)
            p, k = rng.choice([(3, 1), (3, 2), (5, 1), (5, 2)])
            m = rand_matrix(rng, n, n)
            ok, z = dn_test(m, p, k)
            assert ok == exhaustive_unit_kernel_exists([list(r) for r in m.data], p, k)


class TestExtendBasis:
    def test_simple_completion(self):
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        out = extend_basis([(1, 0, 0)], basis, 3, 2)
        assert out[0] == (1, 0, 0)
        assert len(out) == 3
        assert set(out[1:]) == {(0, 1, 0), (0, 0, 1)}

    def test_full_set_unchanged(self):
        basis = [(1, 0), (0, 1)]
        vs = [(1, 2), (0, 1)]
        assert extend_basis(vs, basis, 3, 2) == vs

    def test_dependent_rejected(self):
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        with pytest.raises(ValueError):
            extend_basis([(1, 0, 0), (3, 0, 0)], basis, 3, 2)

    def test_outside_module_rejected(self):
        basis = [(1, 0, 0), (0, 1, 0)]  # free module missing the last axis
        with pytest.raises(ValueError):
            extend_basis([(0, 0, 1)], basis, 3, 2)

    def test_empty_input_returns_basis(self):
        basis = [(1, 0), (0, 1)]
        assert extend_basis([], basis, 3, 2) == basis

    def test_ring_checked_before_the_vectors(self):
        # p and k are refused with snf_mod_pk's messages, with or without
        # vectors to solve for, and before p ** k is taken
        basis = [(1, 0), (0, 1)]
        for p, k in ((4, 0), (4, 1), (3, 0), (3, -1), (0, -1), (1, 2)):
            with pytest.raises(ValueError) as expected:
                snf_mod_pk(IntMatrix.from_columns(basis), p, k)
            for vs in ([], [(1, 0)]):
                with pytest.raises(ValueError) as got:
                    extend_basis(vs, basis, p, k)
                assert str(got.value) == str(expected.value), (p, k, vs)

    def test_p2_warning_only_with_vectors(self):
        basis = [(1, 0), (0, 1)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert extend_basis([], basis, 2, 3) == basis
            assert extend_basis([(1, 0)], basis, 2, 3) == [(1, 0), (0, 1)]
        assert len(caught) == 1

    def test_one_decomposition_per_call(self, count_calls):
        # every vector is solved through one Smith form of the basis matrix,
        # so the p = 2 warning comes once per call too
        calls = count_calls(snf.snf_mod_pk)
        basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        vs = [(1, 2, 0, 0), (0, 1, 3, 0), (0, 0, 1, 1)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = extend_basis(vs, basis, 2, 3)
        assert out == [*vs, (0, 0, 0, 1)]
        assert len(calls) == 1
        assert len(caught) == 1
        assert extend_basis(vs[:2], basis, 3, 2) == [*vs[:2], (0, 0, 1, 0), (0, 0, 0, 1)]
        assert len(calls) == 2

    def test_completion_invertible_mod_p(self):
        rng = random.Random(41)
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for _ in range(30):
            v = tuple(rng.randrange(9) for _ in range(3))
            if all(x % 3 == 0 for x in v):
                continue
            out = extend_basis([v], basis, 3, 2)
            assert len(out) == 3
            m = IntMatrix.from_columns(out)
            assert det(m) % 3 != 0


class TestRankModP:
    def test_matches_gauss(self):
        from oracles import rank_gauss_mod_p

        rng = random.Random(51)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            p = rng.choice([2, 3, 5, 7])
            m = rand_matrix(rng, nr, nc)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert rank_mod_p(m, p) == rank_gauss_mod_p([list(r) for r in m.data], p)

    def test_walk_matrices_match_gauss(self):
        from oracles import rank_gauss_mod_p

        for n in (6, 10, 14):
            w = seeded_walk_matrix(4, n)
            for p in (2, 3, 5, 7):
                assert rank_mod_p(w, p) == rank_gauss_mod_p([list(r) for r in w.data], p)

    def test_p2_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rank_mod_p(IntMatrix([[2, 1], [0, 2]]), 2) == 1

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            rank_mod_p(IntMatrix.identity(2), 6)
