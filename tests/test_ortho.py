"""Rational regular orthogonal matrices: construction, levels, conjugation."""

import random
from math import gcd

import pytest
from sympy import Matrix

from oracles import conjugate_ref, random_controllable, ratregortho_error_ref
from walklevel.errors import ConjugationError
from walklevel.fixtures import load_worked_example
from walklevel.graphs import Graph, walk_matrix
from walklevel.intmat import IntMatrix
from walklevel.ortho import RatRegOrtho, conjugate


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def identity(n):
    return RatRegOrtho(IntMatrix.identity(n), 1)


def permutation(perm):
    """The level-1 matrix P with P[i, perm[i]] = 1, so P^T A P relabels v -> perm[v]."""
    unit = IntMatrix.identity(len(perm)).data
    return RatRegOrtho(IntMatrix([unit[j] for j in perm]), 1)


def switching(n):
    """(2/n) J - I in lowest terms: regular and orthogonal, level n or n/2."""
    g = gcd(2, n)
    return RatRegOrtho(
        IntMatrix([[(2 - n * (i == j)) // g for j in range(n)] for i in range(n)]), n // g)


def relabeled(rng, q):
    """P Q P' for random permutations P and P': still regular orthogonal."""
    rows = rng.sample(q.num.data, q.n)
    perm = rng.sample(range(q.n), q.n)
    return RatRegOrtho(IntMatrix([[row[j] for j in perm] for row in rows]), q.den)


def solved_q(g, h):
    """(W(H) W(G)^{-1})^T in sympy's exact rationals."""
    return (Matrix(walk_matrix(h).data) * Matrix(walk_matrix(g).data).inv()).T


def valid_matrices(rng):
    ex = load_worked_example()
    base = [ex.q_level3, ex.q_level9] + [switching(n) for n in range(3, 9)]
    base += [permutation(rng.sample(range(n), n)) for n in (1, 4, 7)]
    return base + [relabeled(rng, q) for q in base for _ in range(3)]


def outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ConjugationError) as exc:
        return type(exc).__name__, str(exc)


class TestRatRegOrtho:
    def test_identity(self):
        assert identity(4).level == 1

    def test_lowest_terms_enforced(self):
        with pytest.raises(ValueError):
            RatRegOrtho(3 * IntMatrix.identity(2), 3)

    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            RatRegOrtho(IntMatrix([[1, 1], [0, 1]]), 1)

    def test_regularity_enforced(self):
        # orthogonal but row sums -1: not regular
        with pytest.raises(ValueError):
            RatRegOrtho(IntMatrix([[-1, 0], [0, -1]]), 1)

    def test_each_check_names_its_failure(self):
        cases = [
            (IntMatrix([[1, 0, 0], [0, 1, 0]]), 1, "matrix must be square"),
            (IntMatrix.identity(2), 0, "denominator must be positive"),
            (3 * IntMatrix.identity(2), 3, "entries and denominator are not in lowest terms"),
            # unit columns of norm 9 that are not orthogonal: c_0 . c_1 = 8
            (IntMatrix.from_columns([(1, 2, 2), (2, 1, 2), (2, 2, 1)]), 3,
             "matrix is not orthogonal after scaling"),
            (IntMatrix([[2, 0], [0, 1]]), 1, "matrix is not orthogonal after scaling"),
            (IntMatrix([[1, 1], [0, 1]]), 1, "matrix is not orthogonal after scaling"),
            (IntMatrix([[-1, 0], [0, -1]]), 1,
             "matrix is not regular (row/column sums differ from den)"),
            (-switching(4).num, 2, "matrix is not regular (row/column sums differ from den)"),
        ]
        for num, den, message in cases:
            with pytest.raises(ValueError) as exc:
                RatRegOrtho(num, den)
            assert str(exc.value) == message
            assert ratregortho_error_ref(num.data, den) == message

    def test_checks_match_product_reference(self):
        # valid matrices, and the same ones with a row negated, an entry moved
        # by 1 or by den, or num and den scaled: each check fails somewhere
        rng = random.Random(12)
        seen = set()
        for q in valid_matrices(rng):
            rows = [list(row) for row in q.num.data]
            variants = [(rows, q.den), ([[2 * x for x in row] for row in rows], 2 * q.den)]
            for _ in range(6):
                bad = [row[:] for row in rows]
                i, j = rng.randrange(q.n), rng.randrange(q.n)
                kind = rng.randrange(3)
                if kind == 0:
                    bad[i] = [-x for x in bad[i]]
                else:
                    bad[i][j] += rng.choice((1, -1)) * (1 if kind == 1 else q.den)
                variants.append((bad, q.den))
            for num, den in variants:
                got = outcome(RatRegOrtho, IntMatrix(num), den)
                expected = ratregortho_error_ref(num, den)
                if expected is None:
                    assert isinstance(got, RatRegOrtho)
                else:
                    assert got == ("ValueError", expected)
                seen.add(expected)
        assert seen == {None, "entries and denominator are not in lowest terms",
                        "matrix is not orthogonal after scaling",
                        "matrix is not regular (row/column sums differ from den)"}

    def test_fixture_levels(self):
        ex = load_worked_example()
        assert ex.q_level3.level == 3
        assert ex.q_level9.level == 9
        assert identity(10).level == 1


class TestFromPair:
    """Q from the pair (G, H = Q^T A(G) Q): with W(G) nonsingular,
    num^T W(G) = den W(H) leaves one Q, which sympy solves for exactly."""

    def test_relabeling_gives_permutation(self):
        rng = random.Random(4)
        g = random_controllable(rng, 7)
        perm = rng.sample(range(7), 7)
        h = Graph.from_edges(7, [(perm[u], perm[v]) for u in range(7) for v in g.neighbors(u)])
        q = permutation(perm)
        assert conjugate(q, g) == h
        assert solved_q(g, h) == Matrix(q.num.data)

    def test_worked_example_level3(self):
        ex = load_worked_example()
        h1 = conjugate(ex.q_level3, ex.graph)
        assert solved_q(ex.graph, h1) == Matrix(ex.q_level3.num.data) / 3
        assert ex.q_level3.level == 3

    def test_worked_example_level9(self):
        ex = load_worked_example()
        h2 = conjugate(ex.q_level9, ex.graph)
        assert solved_q(ex.graph, h2) == Matrix(ex.q_level9.num.data) / 9
        assert ex.q_level9.level == 9

    def test_walk_transport_identity(self):
        # num^T W(G) = den W(H) exactly, for the bundled pair
        ex = load_worked_example()
        h1 = conjugate(ex.q_level3, ex.graph)
        assert ex.q_level3.num.T @ walk_matrix(ex.graph) == 3 * walk_matrix(h1)


class TestConjugate:
    def test_identity_fixes(self):
        rng = random.Random(6)
        g = random_graph(rng, 8)
        assert conjugate(identity(8), g) == g

    def test_fixture_mates_valid_and_distinct(self):
        from walklevel.graphs import isomorphic

        ex = load_worked_example()
        h1 = conjugate(ex.q_level3, ex.graph)
        h2 = conjugate(ex.q_level9, ex.graph)
        assert not isomorphic(h1, h2)

    def test_rejects_non_member(self):
        # a level-3 matrix admissible for the bundled graph is generally not
        # admissible for a fresh random graph
        ex = load_worked_example()
        rng = random.Random(7)
        other = random_graph(rng, 10)
        with pytest.raises(ConjugationError):
            conjugate(ex.q_level3, other)

    def test_entry_outside_zero_and_level_square(self):
        # entry (0,1) of num^T A num is 2, between 0 and den^2 = 4
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(ConjugationError) as exc:
            conjugate(switching(4), g)
        assert str(exc.value) == (
            "conjugated entry (0,1) is 2, not in {0, 4}; "
            "the matrix does not carry this graph to a graph")

    def test_nonzero_diagonal(self):
        # trace(Q^T A Q) = trace(A) = 0, so a diagonal entry den^2 comes with a
        # negative one; the first entry outside {0, den^2} in row-major order
        # is named, which need not be on the diagonal
        q = switching(4)
        with pytest.raises(ConjugationError) as exc:
            conjugate(q, Graph.from_edges(4, [(0, 1)]))
        assert str(exc.value).startswith("conjugated entry (0,0) is -2, not in {0, 4};")
        g = Graph.from_edges(4, [(1, 2), (1, 3)])
        assert conjugate_ref(q.num.data, q.den, g.adj).startswith(
            "conjugated entry (0,2) is 2,")
        with pytest.raises(ConjugationError) as exc:
            conjugate(q, g)
        assert str(exc.value).startswith("conjugated entry (0,2) is 2, not in {0, 4};")

    def test_matches_product_reference(self):
        rng = random.Random(13)
        ex = load_worked_example()
        results = set()
        for q in valid_matrices(rng):
            graphs = [random_graph(rng, q.n, rng.choice((0.2, 0.5, 0.8))) for _ in range(8)]
            if q.n == 4:
                graphs.append(Graph.from_edges(4, [(0, 1), (2, 3)]))
            if q.n == 10:
                graphs.append(ex.graph)
            for g in graphs:
                got = outcome(conjugate, q, g)
                expected = conjugate_ref(q.num.data, q.den, g.adj)
                if isinstance(expected, str):
                    assert got == ("ConjugationError", expected)
                else:
                    assert got == Graph(expected)
                results.add(isinstance(expected, str))
        assert results == {True, False}

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(identity(3), Graph.from_edges(2, []))


class TestLevelOneIsPermutation:
    def test_level_one_members_are_permutations(self):
        # integral + orthogonal + regular means exactly one 1 per row/column
        rng = random.Random(8)
        for _ in range(10):
            perm = tuple(rng.sample(range(6), 6))
            q = permutation(perm)
            assert q.level == 1
            cols = sorted(q.num.T.data)
            assert cols == sorted(IntMatrix.identity(6).data)
