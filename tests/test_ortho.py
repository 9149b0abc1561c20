"""Rational regular orthogonal matrices: construction, levels, conjugation."""

import random

import pytest

from oracles import random_controllable
from walklevel.errors import ConjugationError
from walklevel.fixtures import load_worked_example
from walklevel.graphs import Graph, walk_matrix
from walklevel.intmat import IntMatrix
from walklevel.ortho import RatRegOrtho, conjugate, from_pair, level


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestRatRegOrtho:
    def test_identity(self):
        q = RatRegOrtho.identity(4)
        assert q.level == 1

    def test_lowest_terms_enforced(self):
        with pytest.raises(ValueError):
            RatRegOrtho(3 * IntMatrix.identity(2), 3)

    def test_from_fraction_reduces(self):
        q = RatRegOrtho.from_fraction(3 * IntMatrix.identity(2), 3)
        assert q.level == 1

    def test_negative_denominator_normalized(self):
        q = RatRegOrtho.from_fraction(-1 * IntMatrix.identity(2), -1)
        assert q.den == 1 and q.num == IntMatrix.identity(2)

    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            RatRegOrtho(IntMatrix([[1, 1], [0, 1]]), 1)

    def test_regularity_enforced(self):
        # orthogonal but row sums -1: not regular
        with pytest.raises(ValueError):
            RatRegOrtho(IntMatrix([[-1, 0], [0, -1]]), 1)

    def test_fixture_levels(self):
        ex = load_worked_example()
        assert level(ex.q_level3) == 3
        assert level(ex.q_level9) == 9
        assert level(RatRegOrtho.identity(10)) == 1


class TestFromPair:
    def test_same_graph_gives_identity(self):
        rng = random.Random(3)
        g = random_controllable(rng, 6)
        assert from_pair(g, g) == RatRegOrtho.identity(6)

    def test_relabeling_gives_permutation(self):
        rng = random.Random(4)
        g = random_controllable(rng, 7)
        perm = tuple(rng.sample(range(7), 7))
        h = g.relabel(perm)
        q = from_pair(g, h)
        assert q.level == 1
        assert q == RatRegOrtho.from_permutation(perm)

    def test_worked_example_level3(self):
        ex = load_worked_example()
        h1 = conjugate(ex.q_level3, ex.graph)
        q = from_pair(ex.graph, h1)
        assert q == ex.q_level3
        assert q.level == 3

    def test_worked_example_level9(self):
        ex = load_worked_example()
        h2 = conjugate(ex.q_level9, ex.graph)
        q = from_pair(ex.graph, h2)
        assert q == ex.q_level9
        assert q.level == 9

    def test_uncontrollable_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            from_pair(g, g)

    def test_non_cospectral_rejected(self):
        rng = random.Random(5)
        g = random_controllable(rng, 6)
        h = random_controllable(rng, 6)
        if g != h:
            with pytest.raises(ValueError):
                from_pair(g, h)

    def test_walk_transport_identity(self):
        # num^T W(G) = den W(H) exactly, for the bundled pair
        ex = load_worked_example()
        h1 = conjugate(ex.q_level3, ex.graph)
        assert ex.q_level3.num.T @ walk_matrix(ex.graph) == 3 * walk_matrix(h1)


class TestConjugate:
    def test_identity_fixes(self):
        rng = random.Random(6)
        g = random_graph(rng, 8)
        assert conjugate(RatRegOrtho.identity(8), g) == g

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

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(RatRegOrtho.identity(3), Graph.from_edges(2, []))


class TestLevelOneIsPermutation:
    def test_level_one_members_are_permutations(self):
        # integral + orthogonal + regular means exactly one 1 per row/column
        rng = random.Random(8)
        for _ in range(10):
            perm = tuple(rng.sample(range(6), 6))
            q = RatRegOrtho.from_permutation(perm)
            assert q.level == 1
            cols = sorted(q.num.T.data)
            assert cols == sorted(IntMatrix.identity(6).data)
