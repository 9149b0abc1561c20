"""Exact matrix layer: products, determinants, characteristic polynomials."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import charpoly_cofactor, det_cofactor, minor_gcd
from walklevel.arith import v_p
from walklevel.fixtures import load_worked_example
from walklevel.intmat import IntMatrix, IntPoly, _bareiss, char_poly, det

small_square = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def rand_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class TestMatMul:
    def test_identity(self):
        m = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert IntMatrix.identity(3) @ m == m
        assert m @ IntMatrix.identity(3) == m

    def test_involution(self):
        swap = IntMatrix([[0, 1], [1, 0]])
        assert swap @ swap == IntMatrix.identity(2)

    def test_scaled_orthogonal_gram(self):
        # the level-3 fixture satisfies (3Q)^T (3Q) = 9 I
        q3 = load_worked_example().q_level3
        assert q3.num.T @ q3.num == 9 * IntMatrix.identity(10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]])

    @given(small_square, small_square, small_square)
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, a, b, c):
        n = min(len(a), len(b), len(c))
        a = IntMatrix([row[:n] for row in a[:n]])
        b = IntMatrix([row[:n] for row in b[:n]])
        c = IntMatrix([row[:n] for row in c[:n]])
        assert (a @ b) @ c == a @ (b @ c)


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(4)) == 1

    def test_diag(self):
        assert det(IntMatrix([[2, 0], [0, 3]])) == 6

    def test_worked_example_walk_det(self):
        from walklevel.graphs import walk_matrix

        w = walk_matrix(load_worked_example().graph)
        assert abs(det(w)) == 2**5 * 3**4 * 19

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_against_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n)
            assert det(m) == det_cofactor([list(r) for r in m.data])

    @given(small_square, small_square)
    @settings(max_examples=40, deadline=None)
    def test_multiplicative(self, a, b):
        n = min(len(a), len(b))
        a = IntMatrix([row[:n] for row in a[:n]])
        b = IntMatrix([row[:n] for row in b[:n]])
        assert det(a @ b) == det(a) * det(b)


def square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


# zero-heavy entries force Bareiss's zero-pivot row swaps
sparse_square = st.integers(1, 7).flatmap(
    lambda n: square(n, st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4]))
)
# A diag(c) B with a divisor chain c: the gcd of the (n-1)-minors is a
# multiple of c_1...c_(n-1), so it is rarely 1
chained_square = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        square(n, st.integers(-2, 2)),
        st.lists(st.sampled_from([1, 1, 2, 3]), min_size=n, max_size=n),
        square(n, st.integers(-2, 2)),
    )
)


def chain_product(a, steps, b):
    c, acc = [], 1
    for s in steps:
        acc *= s
        c.append(acc)
    return (IntMatrix(a) @ IntMatrix.diag(c) @ IntMatrix(b)).data


class TestBareiss:
    """_bareiss(a) = (det a, M, k, T_k): M = gcd(|det a|, h), with h the gcd
    of the four (n-1)-minors in the trailing 2x2 block one step before the
    end, is a multiple of the gcd of all (n-1)-minors; checked against
    cofactors."""

    def check(self, rows):
        n = len(rows)
        d, modulus, k, block = _bareiss(rows)
        assert d == det_cofactor([list(r) for r in rows])
        if d == 0:
            assert (modulus, k) == (0, 0) and block is rows
        else:
            assert modulus > 0 and d % modulus == 0
            assert modulus % minor_gcd([list(r) for r in rows], n - 1) == 0
            assert 0 <= k < n and len(block) == n - k
        return d, modulus

    @given(sparse_square)
    @settings(max_examples=40, deadline=None)
    def test_minor_gcd_divides_h_sparse(self, rows):
        self.check(rows)

    @given(chained_square)
    @settings(max_examples=40, deadline=None)
    def test_minor_gcd_divides_h_chained(self, abc):
        self.check(chain_product(*abc))

    def test_zero_pivot_swaps(self):
        # zero pivots at steps 0 and 2, before h is read at step 3 (h = 36)
        rows = [[0, 2, 0, 0, 0], [3, 0, 0, 0, 0], [0, 0, 0, 4, 0],
                [0, 0, 6, 0, 0], [0, 0, 0, 0, 5]]
        assert self.check(rows) == (720, 36)
        # zero pivot at the last step, after h = 2 is read
        assert self.check([[1, 0, 0], [0, 0, 4], [0, 6, 0]]) == (-24, 2)

    def test_one_by_one(self):
        # the only (n-1)-minor of a 1x1 matrix is the empty one, 1
        assert _bareiss([[-5]]) == (-5, 1, 0, [[-5]])
        assert _bareiss([[0]]) == (0, 0, 0, [[0]])

    def test_two_by_two_is_content(self):
        assert self.check([[4, 6], [10, 8]]) == (-28, 2)
        assert self.check([[0, 6], [9, 3]]) == (-54, 3)

    def test_negative_det(self):
        m = IntMatrix([[0, 2, 0], [3, 0, 0], [0, 0, 5]])
        assert self.check(m.data)[0] == det(m) == -30

    def test_singular(self):
        assert self.check([[1, 2, 3], [2, 4, 6], [0, 1, 1]])[0] == 0
        assert self.check(IntMatrix.zeros(3, 3).data)[0] == 0

    def test_empty_and_non_square(self):
        assert _bareiss(()) == (1, 1, 0, ())
        assert det(IntMatrix(())) == 1
        with pytest.raises(ValueError):
            det(IntMatrix([[1, 2]]))

    def test_det_is_its_first_half(self):
        rng = random.Random(12)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 6))
            assert det(m) == _bareiss(m.data)[0] == det_cofactor([list(r) for r in m.data])


class TestConstruction:
    def test_from_columns(self):
        assert IntMatrix.from_columns([(1, 2), (3, 4), (5, 6)]) == IntMatrix(
            [[1, 3, 5], [2, 4, 6]]
        )

    def test_from_columns_unequal_lengths(self):
        with pytest.raises(ValueError):
            IntMatrix.from_columns([(1, 2), (3,)])

    def test_rows_normalized_and_checked(self):
        assert IntMatrix([[True, 2.0]]).data == ((1, 2),)
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])


class TestCharPoly:
    def test_zero_matrix(self):
        assert char_poly(IntMatrix.zeros(2, 2)) == IntPoly((0, 0, 1))

    def test_single_edge(self):
        # eigenvalues +-1: x^2 - 1
        assert char_poly(IntMatrix([[0, 1], [1, 0]])) == IntPoly((-1, 0, 1))

    def test_worked_example_frozen(self):
        # frozen output of the cofactor-expansion oracle on the bundled
        # 10-vertex adjacency matrix; recomputed live as well
        expected = (-1, 56, 90, -184, -156, 146, 102, -34, -25, 0, 1)
        a = load_worked_example().graph.adjacency()
        assert char_poly(a).coeffs == expected
        assert charpoly_cofactor([list(r) for r in a.data]) == expected

    def test_against_oracle_random(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n)
            assert char_poly(m).coeffs == charpoly_cofactor([list(r) for r in m.data])

    def test_monic(self):
        rng = random.Random(3)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 6))
            cp = char_poly(m)
            assert cp.degree == m.rows
            assert cp.coeffs[-1] == 1

    @given(st.integers(2, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ))
    @settings(max_examples=30, deadline=None)
    def test_cayley_hamilton_symmetric01(self, rows):
        n = len(rows)
        sym = [[rows[i][j] if i < j else (0 if i == j else rows[j][i]) for j in range(n)]
               for i in range(n)]
        a = IntMatrix(sym)
        cp = char_poly(a)
        acc = IntMatrix.zeros(n, n)
        power = IntMatrix.identity(n)
        for c in cp.coeffs:
            acc = acc + c * power
            power = power @ a
        assert acc.is_zero()


class TestValuation:
    def test_known(self):
        assert v_p(270, 3) == 3

    def test_worked_example_values(self):
        assert v_p(1539, 3) == 4
        assert v_p(1539, 19) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            v_p(0, 3)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            v_p(12, 4)

    @given(st.integers(-10**6, 10**6).filter(bool),
           st.integers(-10**6, 10**6).filter(bool),
           st.sampled_from([2, 3, 5, 7, 19]))
    @settings(max_examples=60, deadline=None)
    def test_additive(self, a, b, p):
        assert v_p(a * b, p) == v_p(a, p) + v_p(b, p)


class TestIntPoly:
    def test_normalization(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()
        assert IntPoly(()).degree == -1

    def test_eval(self):
        p = IntPoly((-1, 0, 1))  # x^2 - 1
        assert p(3) == 8
        assert p(-1) == 0
