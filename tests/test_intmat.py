"""Exact matrix layer: products, determinants, characteristic polynomials."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bareiss_single_step, charpoly_cofactor, det_cofactor, minor_gcd
from walklevel import intmat
from walklevel.arith import v_p
from walklevel.fixtures import load_worked_example
from walklevel.graphs import walk_matrix
from walklevel.intmat import IntMatrix, _bareiss, char_poly, det
from walklevel.snf import _factors_from_block
from walklevel.sweep import derive_stream, random_graph

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
    """_bareiss(a) = (det a, M, k, T_k, v): M = gcd(|det a|, h), with h the
    gcd of the four (n-1)-minors in the trailing 2x2 block one step before
    the end, is a multiple of the gcd of all (n-1)-minors, and v holds the
    2-adic valuations of d_1, ..., d_(n-1), which never decrease and add up
    to that of the gcd of the (n-1)-minors; checked against cofactors."""

    def check(self, rows):
        n = len(rows)
        d, modulus, k, block, twos = _bareiss(rows)
        assert d == det_cofactor([list(r) for r in rows])
        if d == 0:
            assert (modulus, k, twos) == (0, 0, ()) and block is rows
        else:
            g = minor_gcd([list(r) for r in rows], n - 1)
            assert modulus > 0 and d % modulus == 0 and modulus % g == 0
            assert 0 <= k < n and len(block) == n - k
            assert len(twos) == n - 1 and list(twos) == sorted(twos)
            assert sum(twos) == v_p(g, 2)
        return d, modulus, twos

    @given(sparse_square)
    @settings(max_examples=40, deadline=None)
    def test_minor_gcd_divides_h_sparse(self, rows):
        self.check(rows)

    @given(chained_square)
    @settings(max_examples=40, deadline=None)
    def test_minor_gcd_divides_h_chained(self, abc):
        self.check(chain_product(*abc))

    def test_zero_pivot_swaps(self):
        # column 0 has its odd entry in row 1 (a row swap); column 1 then
        # holds only 3 * 2, so step 1 swaps in the column of 3 * 5 (a column
        # swap); h = 180 is read at step 3
        rows = [[0, 2, 0, 0, 0], [3, 0, 0, 0, 0], [0, 0, 0, 4, 0],
                [0, 0, 6, 0, 0], [0, 0, 0, 0, 5]]
        assert self.check(rows) == (720, 180, (0, 0, 1, 1))
        # column 1 holds no odd entry, so its row swap comes at the last
        # step, after h = 2 is read
        assert self.check([[1, 0, 0], [0, 0, 4], [0, 6, 0]]) == (-24, 2, (0, 1))

    def test_one_by_one(self):
        # the only (n-1)-minor of a 1x1 matrix is the empty one, 1
        assert _bareiss([[-5]]) == (-5, 1, 0, [[-5]], ())
        assert _bareiss([[0]]) == (0, 0, 0, [[0]], ())

    def test_two_by_two_is_content(self):
        assert self.check([[4, 6], [10, 8]]) == (-28, 2, (1,))
        assert self.check([[0, 6], [9, 3]]) == (-54, 3, (0,))

    def test_negative_det(self):
        m = IntMatrix([[0, 2, 0], [3, 0, 0], [0, 0, 5]])
        assert self.check(m.data)[0] == det(m) == -30

    def test_singular(self):
        assert self.check([[1, 2, 3], [2, 4, 6], [0, 1, 1]])[0] == 0
        assert self.check(IntMatrix([[0] * 3] * 3).data)[0] == 0

    def test_empty_and_non_square(self):
        assert _bareiss(()) == (1, 1, 0, (), ())
        assert det(IntMatrix(())) == 1
        with pytest.raises(ValueError):
            det(IntMatrix([[1, 2]]))

    def test_det_is_its_first_half(self):
        rng = random.Random(12)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 6))
            assert det(m) == _bareiss(m.data)[0] == det_cofactor([list(r) for r in m.data])


# entries from a small pool, each row and each column scaled by 1, 2, 4, 8,
# 16 or 3: the valuations of a block rise inside a round, so a second or
# third pivot would need the whole-block scan
SCALES = st.sampled_from([1, 2, 4, 8, 16, 3])
scaled_square = st.integers(1, 14).flatmap(
    lambda n: st.tuples(
        square(n, st.sampled_from([0, 1, -1, 2, 3, -5, 7])),
        st.lists(SCALES, min_size=n, max_size=n),
        st.lists(SCALES, min_size=n, max_size=n),
    )
).map(lambda t: [[x * r * c for x, c in zip(row, t[2])] for row, r in zip(t[0], t[1])])


def trace_rounds(monkeypatch, rows):
    """(_bareiss(rows), its rounds as (k, s), the single steps that rebuilt
    a T_k chosen inside a round as (k, s), the k of each whole-block scan)."""
    n = len(rows)
    calls, scans = [], []
    eliminate, least = intmat._eliminate, intmat._least_valuation

    def spy_eliminate(block, s, prev, pivot):
        calls.append((n - len(block), s))
        return eliminate(block, s, prev, pivot)

    def spy_least(block, floor):
        scans.append(n - len(block))
        return least(block, floor)

    monkeypatch.setattr(intmat, "_eliminate", spy_eliminate)
    monkeypatch.setattr(intmat, "_least_valuation", spy_least)
    try:
        result = _bareiss(rows)
    finally:
        monkeypatch.undo()
    # the rounds go on from where the last one stopped; a rebuild starts
    # over at a round's k
    rounds, rebuilt = [], []
    for k, s in calls:
        if rebuilt or (rounds and k != sum(rounds[-1])):
            rebuilt.append((k, s))
        else:
            rounds.append((k, s))
    return result, rounds, rebuilt, scans


def same_up_to_order(a, b):
    """Whether blocks a and b can be equal after permuting rows and columns:
    compared as multisets of sorted rows and of sorted columns."""
    def key(rows):
        return sorted(sorted(r) for r in rows)
    return key(a) == key(b) and key(zip(*a)) == key(zip(*b))


class TestMultistepBareiss:
    """_bareiss takes up to three pivots per round, one pass over the
    trailing block each, and must give the frozen single-step
    elimination's (det, M, k, v), a T_k that differs from its own only in
    the order of rows and columns, and so the same _factors_from_block
    output."""

    def check(self, rows):
        got, ref = _bareiss(rows), bareiss_single_step(rows)
        d, modulus, k, block, twos = got
        assert (d, modulus, k, twos) == (ref[0], ref[1], ref[2], ref[4])
        if d == 0 or k == 0:
            assert block is rows
        else:
            assert same_up_to_order(block, ref[3])
            assert _factors_from_block(*got) == _factors_from_block(*ref)
        return got

    @given(scaled_square)
    @settings(max_examples=150, deadline=None)
    def test_scaled_matrices(self, rows):
        self.check(rows)

    def test_walk_matrices(self):
        # the first three draws at each n, mostly uncontrollable, and from
        # n = 6 on (no graph on 3 to 5 vertices is controllable) the first
        # controllable one
        for n in range(3, 31):
            draws = (walk_matrix(random_graph(derive_stream(5, n, attempt), n, 1, 2)).data
                     for attempt in range(1000 if n >= 6 else 3))
            for attempt, rows in enumerate(draws):
                if self.check(rows)[0] and attempt >= 2:
                    break
            else:
                assert n < 6

    def test_second_and_third_pivot_need_the_column_swap(self, monkeypatch):
        # column 1 of T_1 holds only 2 and 4: the second pivot needs the
        # whole-block scan, which swaps in column 2, so the first round stops
        # after one pivot and the second starts with that scan
        rows = [[1, 0, 0, 0, 0], [0, 2, 1, 0, 0], [0, 4, 3, 0, 0], [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1]]
        result, rounds, rebuilt, scans = trace_rounds(monkeypatch, rows)
        assert rounds[0] == (0, 1) and scans[0] == 1 and not rebuilt
        assert self.check(rows) == result
        # the same 2x2 block one step later: the third pivot needs the scan
        rows = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 2, 1, 0, 0],
                [0, 0, 4, 3, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
        result, rounds, rebuilt, scans = trace_rounds(monkeypatch, rows)
        assert rounds[0] == (0, 2) and scans[0] == 2 and not rebuilt
        assert self.check(rows) == result

    def test_singular_inside_a_round(self, monkeypatch):
        # column 1 of T_1 is zero: the first round stops after one pivot, and
        # the second finds no pivot in its column
        for rows in ([[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                      [0, 0, 0, 0, 1]],
                     [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                      [0, 0, 0, 0, 1]]):
            result, rounds, _, _ = trace_rounds(monkeypatch, rows)
            assert rounds == [(0, 1)]
            assert result == (0, 0, 0, rows, ()) and result[3] is rows
            assert self.check(rows) == result

    def test_block_rebuilt_inside_a_round(self, monkeypatch):
        # det 510, M = 3: D_2 is the last pivot prime to 3, and the first
        # round went from T_0 to T_3, so T_2 is rebuilt by two single steps
        # from that round's rows of T_0
        rows = [[2, 3, -1, 3, -1], [3, 1, 0, -1, 0], [0, 0, 3, 3, 0], [1, 2, -1, 9, -3],
                [1, 0, -1, -3, -3]]
        result, rounds, rebuilt, _ = trace_rounds(monkeypatch, rows)
        assert result[:3] == (510, 3, 2)
        assert rounds == [(0, 3), (3, 1)] and rebuilt == [(0, 1), (1, 1)]
        assert _factors_from_block(*self.check(rows)) == (1, 1, 1, 1, 510)

    def test_short_orders(self, monkeypatch):
        # no round steps past T_(n-2): below n = 5 no round takes three pivots,
        # and at n = 5 only the first can
        rng = random.Random(30)
        for n in range(1, 6):
            for _ in range(40):
                rows = [[rng.choice((0, 1, -1, 2, 3, 4, 6)) for _ in range(n)] for _ in range(n)]
                result, rounds, _, _ = trace_rounds(monkeypatch, rows)
                assert all(k + s <= max(n - 2, k + 1) for k, s in rounds)
                assert all(s < 3 for k, s in rounds if n < 5 or k > 0)
                assert self.check(rows) == result


class TestConstruction:
    def test_from_columns(self):
        assert IntMatrix.from_columns([(1, 2), (3, 4), (5, 6)]) == IntMatrix(
            [[1, 3, 5], [2, 4, 6]]
        )

    def test_from_columns_unequal_lengths(self):
        with pytest.raises(ValueError):
            IntMatrix.from_columns([(1, 2), (3,)])

    def test_rows_normalized_and_checked(self):
        data = IntMatrix([[True, 2], [False, -3]]).data
        assert data == ((1, 2), (0, -3))
        assert all(type(x) is int for row in data for x in row)
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_non_integral_entries_refused(self):
        # int() would truncate 1.5 and 4.9 and parse the strings
        for rows, name in ((((1.5, 2), (3, 4.9)), "entry (0,0) is 1.5"),
                           ((("7", "8"),), "entry (0,0) is '7'"),
                           (((1, 2), (3, 2.0)), "entry (1,1) is 2.0"),
                           (((1, Fraction(2)),), "entry (0,1) is Fraction(2, 1)")):
            with pytest.raises(ValueError, match=re.escape(name + ", not an integer")):
                IntMatrix(rows)

    def test_algebra_keeps_exact_ints(self):
        a = IntMatrix([[True, 2], [3, False]])
        for m in (a + a, a - a, -a, 3 * a, a * 3, a @ a, a.T, IntMatrix.identity(3)):
            assert all(type(x) is int for row in m.data for x in row)
            assert m == IntMatrix(m.data)
        assert (a @ a).data == ((7, 2), (3, 6))


class TestCharPoly:
    def test_zero_matrix(self):
        assert char_poly(IntMatrix([[0] * 2] * 2)) == (0, 0, 1)

    def test_single_edge(self):
        # eigenvalues +-1: x^2 - 1
        assert char_poly(IntMatrix([[0, 1], [1, 0]])) == (-1, 0, 1)

    def test_worked_example_frozen(self):
        # frozen output of the cofactor-expansion oracle on the bundled
        # 10-vertex adjacency matrix; recomputed live as well
        expected = (-1, 56, 90, -184, -156, 146, 102, -34, -25, 0, 1)
        a = load_worked_example().graph.adjacency()
        assert char_poly(a) == expected
        assert charpoly_cofactor([list(r) for r in a.data]) == expected

    def test_against_oracle_random(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n)
            assert char_poly(m) == charpoly_cofactor([list(r) for r in m.data])

    def test_monic(self):
        rng = random.Random(3)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 6))
            cp = char_poly(m)
            assert len(cp) == m.rows + 1
            assert cp[-1] == 1

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
        acc = IntMatrix([[0] * n] * n)
        power = IntMatrix.identity(n)
        for c in cp:
            acc = acc + c * power
            power = power @ a
        assert acc == IntMatrix([[0] * n] * n)


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
