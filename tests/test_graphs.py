"""Graph layer: graph6 I/O, walk matrices, profiles, isomorphism."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import graph_error_ref
from sympy import factorint, multiplicity, primerange
from test_ortho import permutation

from walklevel import arith, graphs, intmat, snf
from walklevel.errors import ParseError
from walklevel.fixtures import load_worked_example
from walklevel.graphs import (
    Graph,
    emit_graph6,
    generalized_cospectral,
    isomorphic,
    parse_graph6,
    walk_matrix,
    walk_profile,
)
from walklevel.intmat import det
from walklevel.ortho import conjugate
from walklevel.snf import rank_mod_p
from walklevel.sweep import derive_stream
from walklevel.sweep import random_graph as sweep_graph


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestGraphType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(((0, 1), (0, 0)))  # asymmetric
        with pytest.raises(ValueError):
            Graph(((1,),))  # diagonal
        with pytest.raises(ValueError):
            Graph(((0, 2), (2, 0)))  # not 0/1

    def test_non_integral_entries_refused(self):
        # int() truncated 0.5 to 0, so this read as the edgeless graph
        with pytest.raises(ValueError, match=r"entry \(0,1\) is 0\.5, not an integer"):
            Graph(((0, 0.5), (0.5, 0)))
        with pytest.raises(ValueError, match=r"entry \(1,0\) is '1', not an integer"):
            Graph(((0, 1), ("1", 0)))
        assert Graph(((False, True), (True, False))).adj == ((0, 1), (1, 0))

    def test_from_edges_checks_vertex_indices(self):
        # a negative index used to wrap around: (0, -1) read as the edge 0-2
        with pytest.raises(ValueError, match=r"edge \(0, -1\) has a vertex outside 0\.\.2"):
            Graph.from_edges(3, [(0, -1)])
        with pytest.raises(ValueError, match=r"edge \(0, 3\) has a vertex outside 0\.\.2"):
            Graph.from_edges(3, [(0, 3)])
        assert Graph.from_edges(3, [(0, 2)]).adj == ((0, 0, 1), (0, 0, 0), (1, 0, 0))

    def test_from_edges_refuses_non_integral_vertices(self):
        # a float vertex used to fail as a bare TypeError from list indexing
        with pytest.raises(ValueError, match=r"edge \(0, 1\.0\) has a vertex that is not an"):
            Graph.from_edges(3, [(0, 1.0)])
        with pytest.raises(ValueError, match=r"edge \('2', 0\) has a vertex that is not an"):
            Graph.from_edges(3, [("2", 0)])
        assert Graph.from_edges(3, [(True, 2)]) == Graph.from_edges(3, [(1, 2)])
        assert all(type(x) is int for row in Graph.from_edges(2, [(False, True)]).adj for x in row)

    def test_ragged_rows_are_not_square(self):
        # a short later row is named before any entry fault of an earlier row
        for adj in (((0, 0, 1), (0, 0, 0), (1,)), ((1, 0, 1), (0, 0), (1, 0, 0)),
                    ((0, 2), (2, 0, 1))):
            with pytest.raises(ValueError, match="adjacency matrix is not square"):
                Graph(adj)

    def test_errors_match_frozen_validator(self):
        # ragged rows, nonzero diagonals, entries outside {0, 1} and
        # asymmetry, alone and together, on lists, bools and ints alike
        rng = random.Random(11)
        seen = set()
        for _ in range(3000):
            n = rng.randint(0, 6)
            adj = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                adj[i][j] = adj[j][i] = rng.randint(0, 1)
            for _ in range(rng.choice((0, 1, 1, 2, 3)) if n else 0):
                i, j = rng.randrange(n), rng.randrange(n)
                fault = rng.choice(("ragged", "diagonal", "entry", "asymmetric"))
                if fault == "ragged":
                    if rng.random() < 0.5 and adj[i]:
                        adj[i].pop()
                    else:
                        adj[i].append(rng.randint(0, 1))
                elif fault == "diagonal" and i < len(adj[i]):
                    adj[i][i] = rng.choice((1, 2, -1))
                elif fault == "entry" and j < len(adj[i]):
                    adj[i][j] = rng.choice((2, -1, 3))
                    if rng.random() < 0.5 and i < len(adj[j]):
                        adj[j][i] = adj[i][j]
                elif fault == "asymmetric" and i != j and j < len(adj[i]):
                    adj[i][j] = 1 - adj[i][j]
            if rng.random() < 0.3:
                adj = [[bool(x) if x in (0, 1) else x for x in row] for row in adj]
            if rng.random() < 0.5:
                adj = tuple(tuple(row) for row in adj)
            # the frozen validator walked entries before it reached a short
            # row, so it could name another fault or raise IndexError; a
            # ragged matrix is now rejected as not square before any entry
            if any(len(row) != n for row in adj):
                expected = ("ValueError", "adjacency matrix is not square")
            else:
                expected = graph_error_ref(adj)
            try:
                got = Graph(adj).adj
            except ValueError as exc:
                got = (type(exc).__name__, str(exc))
            else:
                assert got == tuple(tuple(int(x) for x in row) for row in adj)
                got = None
            assert got == expected
            seen.add(expected)
        assert seen >= {
            None,
            ("ValueError", "adjacency matrix is not square"),
            ("ValueError", "diagonal must be zero"),
            ("ValueError", "entries must be 0 or 1"),
            ("ValueError", "adjacency matrix must be symmetric"),
        }

    def test_complement_involution(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert g.complement().complement() == g


class TestGraph6:
    def test_known_strings(self):
        # cross-checked against the reference implementation below as well
        assert parse_graph6("A?") == Graph.from_edges(2, [])
        assert parse_graph6("A_") == Graph.from_edges(2, [(0, 1)])
        assert parse_graph6("?") == Graph(())  # the CLI reader refuses it by line

    def test_header_allowed(self):
        assert parse_graph6(">>graph6<<A_") == Graph.from_edges(2, [(0, 1)])

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_graph6("")
        with pytest.raises(ParseError):
            parse_graph6("B")  # truncated body
        with pytest.raises(ParseError):
            parse_graph6("A" + chr(200))  # byte out of range
        with pytest.raises(ParseError):
            parse_graph6("A" + chr(63 + 1))  # nonzero padding for n=2

    def test_short_form_unchanged_up_to_62(self):
        # one size byte 63 + n, then the packed upper triangle
        for n in range(63):
            s = emit_graph6(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
            assert s[0] == chr(63 + n)
            assert len(s) == 1 + (n * (n - 1) // 2 + 5) // 6

    def test_long_forms_against_networkx(self):
        # n = 62 is the last one-byte size; from n = 63 on, '~' and 3 bytes
        rng = random.Random(101)
        for n in (62, 63, 64, 200):
            g = random_graph(rng, n, 0.3)
            edges = {(i, j) for i in range(n) for j in range(i + 1, n) if g.adj[i][j]}
            ref_graph = nx.Graph()
            ref_graph.add_nodes_from(range(n))
            ref_graph.add_edges_from(edges)
            ref = nx.to_graph6_bytes(ref_graph, header=False).decode().strip()
            assert ref.startswith("~") == (n >= 63)
            assert emit_graph6(g) == ref
            assert parse_graph6(ref) == g
            back = nx.from_graph6_bytes(emit_graph6(g).encode())
            assert back.number_of_nodes() == n
            assert {tuple(sorted(e)) for e in back.edges()} == edges

    def test_size_field_forms(self):
        from networkx.readwrite.graph6 import n_to_data

        for n in (0, 62, 63, 258047, 258048, 2**36 - 1):
            assert [ord(c) - 63 for c in graphs._graph6_size(n)] == n_to_data(n)
        with pytest.raises(ValueError):
            graphs._graph6_size(2**36)
        # the 8-byte field is read; the missing body then names its n
        with pytest.raises(ParseError, match="n=258048"):
            parse_graph6(graphs._graph6_size(258048))
        with pytest.raises(ParseError, match="cut short"):
            parse_graph6("~??")
        with pytest.raises(ParseError, match="shortest form"):
            parse_graph6("~??A_")  # n = 2 needs the one-byte field "A"

    def test_round_trip_random_corpus(self):
        rng = random.Random(99)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 20))
            assert parse_graph6(emit_graph6(g)) == g

    def test_against_networkx(self):
        rng = random.Random(100)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 15))
            mine = emit_graph6(g)
            ref_graph = nx.Graph()
            ref_graph.add_nodes_from(range(g.n))  # node order fixed before edges
            ref_graph.add_edges_from(
                (i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.adj[i][j]
            )
            ref = nx.to_graph6_bytes(ref_graph).decode().replace(">>graph6<<", "").strip()
            assert mine == ref
            # and parse the reference emission back to the same graph
            assert parse_graph6(ref) == g

    @given(st.integers(1, 30), st.integers(0, 2**60))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, bits):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
        g = Graph.from_edges(n, edges)
        assert parse_graph6(emit_graph6(g)) == g


class TestWalkMatrix:
    def test_single_vertex(self):
        g = Graph(((0,),))
        w = walk_matrix(g)
        assert w.data == ((1,),)
        assert det(w) == 1

    def test_single_edge_not_controllable(self):
        g = Graph.from_edges(2, [(0, 1)])
        w = walk_matrix(g)
        assert w == type(w)(((1, 1), (1, 1)))
        assert det(w) == 0

    def test_column_recurrence(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8))
            w = walk_matrix(g)
            a = g.adjacency()
            for j in range(g.n - 1):
                assert a.mat_vec(w.column(j)) == w.column(j + 1)

    def test_worked_example_valuations(self):
        prof = walk_profile(load_worked_example().graph)
        assert prof.valuation(3) == 4
        assert prof.valuation(2) == 5
        assert prof.valuation(19) == 1
        assert prof.rank_p(3) == 9

    def test_all_four_vertex_graphs_uncontrollable(self):
        for bits in range(64):
            pairs = list(itertools.combinations(range(4), 2))
            edges = [pairs[k] for k in range(6) if (bits >> k) & 1]
            g = Graph.from_edges(4, edges)
            assert not walk_profile(g).controllable

    def test_uncontrollable_profile_empty(self):
        prof = walk_profile(Graph.from_edges(2, [(0, 1)]))
        assert not prof.controllable
        assert prof.primes == {}
        assert prof.normalized_det is None

    def test_explicit_prime_list(self):
        prof = walk_profile(load_worked_example().graph, primes=[3])
        assert set(prof.primes) == {3}

    def test_rank_counts_coprime_factors(self):
        # rank of W mod p equals the number of invariant factors coprime to p
        rng = random.Random(61)
        seen = 0
        while seen < 10:
            g = random_graph(rng, rng.randint(6, 9))
            prof = walk_profile(g)
            if not prof.controllable:
                continue
            seen += 1
            for p, (_, rank) in prof.primes.items():
                coprime = sum(1 for d in prof.invariant_factors if d % p)
                assert rank == coprime


class TestOneBareissPass:
    """A profile builds W's rows once, controllable or not, and runs at most
    one Bareiss pass, and one modular elimination only when the odd part of
    the pass's modulus M is not 1; none for a graph with two equal walk
    rows. A singular W gets one elimination over Z (``_diagonal_mod`` with
    d = 0) and no modular one."""

    def test_counts_per_profile(self, count_calls):
        passes = count_calls(intmat._bareiss)
        moduli = count_calls(snf._diagonal_mod, 1)
        walks = count_calls(graphs._walk_rows)
        integer = count_calls(snf._factors_over_z)
        rng = random.Random(23)
        kinds = {"controllable": 0, "equal rows": 0, "distinct rows, singular": 0}
        odd_moduli = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(6, 10))
            rows = walk_matrix(g).data
            odd = intmat._odd_part(intmat._bareiss(rows)[1] or 1) > 1
            del passes[:], moduli[:], walks[:], integer[:]
            prof = walk_profile(g, primes=(3,))
            modular = sum(1 for d in moduli if d)
            counts = (len(walks), len(passes), modular, len(integer), moduli.count(0))
            if prof.controllable:
                kinds["controllable"] += 1
                odd_moduli += odd
                assert counts == (1, 1, odd, 0, 0)
            elif len(set(rows)) < g.n:
                kinds["equal rows"] += 1
                assert counts == (1, 0, 0, 1, 1)
            else:
                kinds["distinct rows, singular"] += 1
                assert counts == (1, 1, 0, 1, 1)
        assert all(kinds.values()), kinds
        assert 0 < odd_moduli < kinds["controllable"]


def seeded_controllable(n_values, seed):
    """The first controllable sweep draw for each n."""
    out = []
    for n in n_values:
        for attempt in range(1000):
            g = sweep_graph(derive_stream(seed, n, attempt), n, 1, 2)
            if det(walk_matrix(g)):
                out.append(g)
                break
    return out


class TestPrimeTable:
    """The table read off the invariant factors against det W and GF(p) ranks."""

    @staticmethod
    def assert_oracle(prof, primes):
        w, d = prof.W, prof.det_w
        for p in primes:
            expected = (multiplicity(p, d), rank_mod_p(w, p))
            assert prof.primes[p] == expected, (prof.invariant_factors, p)

    def test_auto_table_n_6_to_18(self):
        for seed in (7, 11):
            for g in seeded_controllable(range(6, 19), seed):
                prof = walk_profile(g)
                assert 2 in prof.primes
                self.assert_oracle(prof, prof.primes)

    def test_explicit_primes_up_to_n_24(self):
        # primes up to 60 and two that trial division leaves to rho, plus
        # every prime of det W below 10^4 (the part of the auto table that
        # factors fast at any n)
        fixed = set(primerange(2, 60)) | {10007, 999983}
        seen_coprime = 0
        for g in seeded_controllable(range(6, 25), 5):
            d = det(walk_matrix(g))
            primes = sorted(fixed | {int(p) for p in factorint(abs(d), limit=10**4) if p < 10**4})
            prof = walk_profile(g, primes=primes)
            assert sorted(prof.primes) == primes
            self.assert_oracle(prof, primes)
            for p in primes:
                if d % p:
                    assert prof.primes[p] == (0, g.n)
                    seen_coprime += 1
        assert seen_coprime

    def test_composite_or_unit_primes_rejected(self):
        g = load_worked_example().graph
        for bad in ([4], [1], [3, 9], [0], [-3]):
            with pytest.raises(ValueError, match="not prime"):
                walk_profile(g, primes=bad)

    def test_primality_checked_once_per_listed_prime(self, count_calls):
        calls = count_calls(arith.is_prime)
        walk_profile(load_worked_example().graph, primes=[3, 5, 3, 19, 2])
        assert sorted(calls) == [2, 3, 5, 19]


class TestGeneralizedCospectral:
    def test_reflexive(self):
        g = random_graph(random.Random(1), 6)
        assert generalized_cospectral(g, g)

    def test_edge_vs_empty(self):
        assert not generalized_cospectral(
            Graph.from_edges(2, [(0, 1)]), Graph.from_edges(2, [])
        )

    def test_different_orders_rejected(self):
        with pytest.raises(ValueError):
            generalized_cospectral(Graph.from_edges(2, []), Graph.from_edges(3, []))

    def test_worked_example_mates(self):
        ex = load_worked_example()
        h1 = conjugate(ex.q_level3, ex.graph)
        assert generalized_cospectral(ex.graph, h1)

    def test_relabeling_preserves(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_graph(rng, 7)
            perm = tuple(rng.sample(range(7), 7))
            assert generalized_cospectral(g, conjugate(permutation(perm), g))


class TestIsomorphic:
    def test_relabeled(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9))
            perm = tuple(rng.sample(range(g.n), g.n))
            assert isomorphic(g, conjugate(permutation(perm), g))

    def test_path_vs_triangle(self):
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert not isomorphic(p3, k3)

    def test_same_degrees_not_isomorphic(self):
        # C6 vs two triangles: both 2-regular on 6 vertices
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        tt = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not isomorphic(c6, tt)

    def test_worked_example_mate_not_isomorphic(self):
        ex = load_worked_example()
        h1 = conjugate(ex.q_level3, ex.graph)
        assert not isomorphic(ex.graph, h1)

    def test_size_limit(self):
        g = Graph.from_edges(13, [])
        with pytest.raises(ValueError):
            isomorphic(g, g)

    def test_against_networkx(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            h = random_graph(rng, n)
            ng = nx.Graph([(i, j) for i in range(n) for j in range(i + 1, n) if g.adj[i][j]])
            nh = nx.Graph([(i, j) for i in range(n) for j in range(i + 1, n) if h.adj[i][j]])
            ng.add_nodes_from(range(n))
            nh.add_nodes_from(range(n))
            assert isomorphic(g, h) == nx.is_isomorphic(ng, nh)
