"""Column enumeration and matrix assembly, checked against brute force."""

import random
from itertools import product
from pathlib import Path

import networkx as nx
import pytest

from oracles import (
    assemble_clique,
    backtrack_search_mates,
    box_columns,
    bruteforce_mate_classes,
    enumerate_columns_box_walk,
    enumerate_columns_snf_int,
    random_controllable,
)
from walklevel import graphs, intmat, matesearch
from walklevel.arith import divisors
from walklevel.errors import SearchCapExceeded
from walklevel.fixtures import load_worked_example
from walklevel.graphs import (
    Graph,
    generalized_cospectral,
    parse_graph6,
    walk_matrix,
    walk_profile,
)
from walklevel.intmat import IntMatrix, dot
from walklevel.matesearch import (
    _picks,
    _residue_columns,
    distinct_mate_graphs,
    enumerate_columns,
    search_mates,
)
from walklevel.ortho import RatRegOrtho
from walklevel.sweep import SweepConfig, sweep_one


def nx_graph(g):
    h = nx.empty_graph(g.n)
    h.add_edges_from((i, j) for i in range(g.n) for j in range(i) if g.adj[i][j])
    return h


def check_flags_against_networkx(g, classes):
    """isomorphic_to_input and distinct_mate_graphs against networkx."""
    gn = nx_graph(g)
    reps = []
    for cls in classes:
        h = nx_graph(cls.mate)
        iso = nx.is_isomorphic(gn, h)
        assert cls.isomorphic_to_input == iso
        if not iso and not any(nx.is_isomorphic(h, r) for r in reps):
            reps.append(h)
    assert len(distinct_mate_graphs(classes)) == len(reps)


POOL = Path(__file__).resolve().parent.parent / "perfbench" / "mates_pool.txt"


def pool_searches():
    """(graph, levels) for each line of the mates pool."""
    out = []
    for line in POOL.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            _, g6, levels = line.split()
            out.append((parse_graph6(g6), [int(x) for x in levels.split(",")]))
    return out


# graphs whose kernels mod a power of 2 have hundreds of thousands of residues
DEEP = {r"M{~`UOFxUIeuiq`G_": (8, 12), r"KfAGea\UCmvi": (4, 6)}


def seeded_searches():
    """(graph, levels) for every search of the fixture, the pool, seeded
    sweep slots (seed 42, n 6-12) and random n 6-12 graphs."""
    ex = load_worked_example()
    out = [(ex.graph, [1, 3, 9]), *pool_searches()]
    config = SweepConfig(n_min=6, n_max=12, seed=42)
    for index in range(300):
        rec = sweep_one(config, index)
        if rec.get("search", {}).get("levels"):
            out.append((parse_graph6(rec["graph6"]), [1, *rec["search"]["levels"]]))
    rng = random.Random(12)
    for n in range(6, 13):
        g = random_controllable(rng, n)
        prof = walk_profile(g)
        out.append((g, [d for d in divisors(prof.factor(prof.d_n)) if d <= 60]))
    return out


def box_residue_columns(residue, level):
    """Every v with v = residue (mod level), |v_i| <= level, v.v = level^2
    and e.v = level, by scanning the box."""
    options = [[x for x in range(-level, level + 1) if (x - r) % level == 0] for r in residue]
    return sorted(v for v in product(*options)
                  if sum(v) == level and sum(x * x for x in v) == level * level)


def rule_columns(residue, level):
    out = []
    _residue_columns(list(residue), level, out)
    return sorted(out)


def or_cap(enumerate, prof, level, **kwargs):
    """The column list, or the SearchCapExceeded message in its place."""
    try:
        return enumerate(prof, level, **kwargs)
    except SearchCapExceeded as exc:
        return str(exc)


def columns_or_cap(g, level):
    return or_cap(enumerate_columns, walk_profile(g, ()), level)


class TestRandomControllable:
    def test_raises_where_no_graph_is_controllable(self):
        rng = random.Random(0)
        for n in range(2, 6):
            with pytest.raises(ValueError):
                random_controllable(rng, n)
        assert rng.random() == random.Random(0).random()  # nothing was drawn


class TestEnumerateColumns:
    def test_level_one_is_standard_basis(self):
        rng = random.Random(1)
        g = random_controllable(rng, 6)
        cols = enumerate_columns(walk_profile(g, ()), 1)
        expected = sorted(tuple(1 if i == j else 0 for i in range(6)) for j in range(6))
        assert cols == expected

    def test_candidate_invariants(self):
        ex = load_worked_example()
        prof = walk_profile(ex.graph)
        w = walk_matrix(ex.graph)
        for lvl in (3, 9):
            for v in enumerate_columns(prof, lvl):
                assert dot(v, v) == lvl * lvl
                assert sum(v) == lvl
                assert all(x % lvl == 0 for x in w.T.mat_vec(v))
                assert all(abs(x) <= lvl for x in v)

    def test_worked_example_supersets(self):
        ex = load_worked_example()
        prof = walk_profile(ex.graph)
        c3 = set(enumerate_columns(prof, 3))
        assert set(zip(*ex.q_level3.num.data)) <= c3
        c9 = set(enumerate_columns(prof, 9))
        assert set(zip(*ex.q_level9.num.data)) <= c9

    def test_uncontrollable_matches_box(self):
        # singular W: the output is still every v with the three conditions
        from itertools import combinations

        from walklevel.intmat import det

        pairs = list(combinations(range(4), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(4, [e for i, e in enumerate(pairs) if mask >> i & 1])
            assert not det(walk_matrix(g))
            prof = walk_profile(g, ())
            for level in (1, 2, 3):
                assert enumerate_columns(prof, level) == box_columns(g, level)

    def test_cap_enforced(self, monkeypatch):
        ex = load_worked_example()
        monkeypatch.setattr(matesearch, "CANDIDATE_CAP", 4)
        with pytest.raises(SearchCapExceeded):
            enumerate_columns(walk_profile(ex.graph), 9)

    def test_matches_frozen_integer_smith_version(self):
        # kernel residues from the modular elimination of W^T against those
        # read off snf_int's integer transforms, cap errors included
        ex = load_worked_example()
        for level in range(1, 13):
            assert columns_or_cap(ex.graph, level) == enumerate_columns_snf_int(ex.graph, level)
        for g, levels in pool_searches():
            for level in levels:
                assert columns_or_cap(g, level) == enumerate_columns_snf_int(g, level)
        rng = random.Random(11)
        for n in [*range(6, 12)] * 4:
            g = random_controllable(rng, n)
            for level in range(1, 13):
                assert columns_or_cap(g, level) == enumerate_columns_snf_int(g, level)

    def test_deep_levels_match_box_walk_and_snf_int(self):
        # the levels where the subset sums and the box walk differ most
        for g6, levels in DEEP.items():
            g = parse_graph6(g6)
            prof = walk_profile(g, ())
            for level in levels:
                cols = enumerate_columns(prof, level)
                assert cols == enumerate_columns_box_walk(prof, level)
                assert cols == enumerate_columns_snf_int(g, level)

    def test_matches_box_walk_with_caps(self, monkeypatch):
        ex = load_worked_example()
        prof = walk_profile(ex.graph)
        for level in range(1, 13):
            for cap in (4, 9, 10, 11, 40, 10**6):
                monkeypatch.setattr(matesearch, "CANDIDATE_CAP", cap)
                assert or_cap(enumerate_columns, prof, level) == \
                    or_cap(enumerate_columns_box_walk, prof, level, cap=cap)

    def test_matches_naive_enumeration(self):
        # the kernel residues and subset sums must equal the defining conditions
        # applied to every vector in the box, including a composite level
        g = random_controllable(random.Random(9), 6)
        prof = walk_profile(g, ())
        for lvl in (2, 3, 4):
            assert enumerate_columns(prof, lvl) == box_columns(g, lvl)


class TestResidueRule:
    """The k/T rule against every vector of the box with a given residue."""

    def test_exhaustive_small(self):
        kept = rejected = 0
        for n, level in ((3, 5), (4, 6), (4, 7), (5, 3), (5, 4), (5, 5), (6, 2), (6, 3),
                         (6, 4), (7, 2), (7, 3)):
            for residue in product(range(level), repeat=n):
                if not any(residue):
                    continue
                want = box_residue_columns(residue, level)
                assert rule_columns(residue, level) == want
                kept += bool(want)
                rejected += not want
        assert (kept, rejected) == (737, 14670)

    def test_random_residues(self):
        rng = random.Random(13)
        kept = rejected = 0
        for _ in range(1500):
            n, level = rng.randint(1, 7), rng.randint(2, 12)
            if rng.random() < 0.5:
                # mostly nonzero entries, where columns are likelier
                residue = [rng.randrange(1, level) if rng.random() < 0.8 else 0
                           for _ in range(n)]
            else:
                residue = [rng.randrange(level) for _ in range(n)]
            if not any(residue):
                continue
            want = box_residue_columns(residue, level)
            assert rule_columns(residue, level) == want
            kept += bool(want)
            rejected += not want
        assert kept > 20 and rejected > 20

    def test_cap_counts_columns(self, monkeypatch):
        # (1, 1, 1, 1) mod 2 has the four columns with one entry -1
        assert len(rule_columns((1, 1, 1, 1), 2)) == 4
        out = []
        monkeypatch.setattr(matesearch, "CANDIDATE_CAP", 3)
        with pytest.raises(SearchCapExceeded, match="more than 3 column candidates at level 2"):
            _residue_columns([1, 1, 1, 1], 2, out)


class TestSearchMates:
    def test_uncontrollable_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="not controllable"):
            search_mates(walk_profile(g), [1])

    def test_profile_saves_the_det(self, count_calls):
        # the search reads W and det W != 0 off the profile
        ex = load_worked_example()
        prof = walk_profile(ex.graph)
        dets = count_calls(intmat._bareiss)
        walks = count_calls(graphs._walk_rows)
        assert [c.level for c in search_mates(prof, [1, 3, 9])] == [1, 3, 9]
        assert (dets, walks) == ([], [])

    def test_worked_example_exactly_two(self):
        ex = load_worked_example()
        classes = search_mates(walk_profile(ex.graph), [1, 3, 9])
        nontrivial = [c for c in classes if c.level > 1]
        assert len(nontrivial) == 2
        keys = {c.q.canonical_key() for c in nontrivial}
        assert keys == {ex.q_level3.canonical_key(), ex.q_level9.canonical_key()}

    def test_level_one_only_permutation_class(self):
        rng = random.Random(2)
        g = random_controllable(rng, 7)
        classes = search_mates(walk_profile(g, ()), [1])
        assert len(classes) == 1
        assert classes[0].level == 1
        assert classes[0].q.canonical_key() == RatRegOrtho(IntMatrix.identity(7), 1).canonical_key()
        assert classes[0].isomorphic_to_input

    def test_soundness_invariants(self):
        ex = load_worked_example()
        prof = walk_profile(ex.graph)
        for cls in search_mates(prof, [1, 3, 9]):
            q = cls.q
            assert q.num.T @ q.num == (q.den * q.den) * IntMatrix.identity(10)
            assert generalized_cospectral(ex.graph, cls.mate)
            assert q.num.T @ walk_matrix(ex.graph) == q.level * walk_matrix(cls.mate)
            assert prof.d_n % cls.level == 0

    def test_backends_agree(self):
        # the clique assembly against the backtracking oracle
        ex = load_worked_example()
        a = backtrack_search_mates(ex.graph, [1, 3, 9])
        b = search_mates(walk_profile(ex.graph), [1, 3, 9])
        assert [c.q.canonical_key() for c in a] == [c.q.canonical_key() for c in b]

    def test_backends_agree_random(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_controllable(rng, 6)
            prof = walk_profile(g)
            levels = [d for d in divisors(prof.factor(prof.d_n)) if d <= 50]
            a = backtrack_search_mates(g, levels)
            b = search_mates(prof, levels)
            assert [c.q.canonical_key() for c in a] == [c.q.canonical_key() for c in b]

    def test_picks_match_frozen_clique_assembly(self):
        # unit completion against n-cliques of the full compatibility graph
        searched = 0
        for g, levels in seeded_searches():
            prof = walk_profile(g, ())
            a = g.adjacency()
            for level in levels:
                cands, picks = _picks(prof, level)
                a_cands = [a.mat_vec(v) for v in cands]
                assert picks == assemble_clique(cands, a_cands, g.n, level * level)
                searched += bool(picks)
        assert searched > 50

    def test_node_cap_enforced(self, monkeypatch):
        ex = load_worked_example()
        with pytest.raises(SearchCapExceeded):
            backtrack_search_mates(ex.graph, [3], node_cap=2)
        monkeypatch.setattr(matesearch, "NODE_CAP", 2)
        with pytest.raises(SearchCapExceeded):
            search_mates(walk_profile(ex.graph), [3])


class TestCompositeLevels:
    def test_frozen_composite_level_instance(self):
        # frozen sweep find with classes at 2, 5, and the composite 10;
        # exercises the generic (non-prime-power) kernel enumeration
        from walklevel.graphs import parse_graph6

        g = parse_graph6(r"IWag\fxZG")
        prof = walk_profile(g)
        levels = [d for d in divisors(prof.factor(prof.d_n)) if d <= 100]
        classes = search_mates(prof, levels)
        assert sorted(c.level for c in classes) == [1, 2, 5, 10]
        for cls in classes:
            assert cls.q.num.T @ walk_matrix(g) == cls.level * walk_matrix(cls.mate)
            assert generalized_cospectral(g, cls.mate)
        assert backtrack_search_mates(g, levels) == classes


class TestDedupe:
    """distinct_mate_graphs keeps one mate per right-permutation class."""

    def test_right_permutation_collapses(self):
        # the same matrix with shuffled columns is the same class
        ex = load_worked_example()
        classes = search_mates(walk_profile(ex.graph), [3])
        cls = classes[0]
        rng = random.Random(4)
        cols = list(zip(*cls.q.num.data))
        rng.shuffle(cols)
        from walklevel.matesearch import MateClass
        from walklevel.ortho import conjugate

        shuffled = RatRegOrtho(IntMatrix.from_columns(cols), cls.level)
        twin = MateClass(shuffled, conjugate(shuffled, ex.graph))
        assert len(distinct_mate_graphs([cls, twin])) == 1
        assert distinct_mate_graphs([cls, twin]) == [cls.mate]  # first class wins

    def test_empty(self):
        assert distinct_mate_graphs([]) == []


class TestCompletenessOracle:
    def test_small_graphs_match_bruteforce(self):
        rng = random.Random(5)
        for n in (6, 6, 7):
            g = random_controllable(rng, n)
            prof = walk_profile(g)
            levels = divisors(prof.factor(prof.d_n))
            ours = {c.q.canonical_key() for c in search_mates(prof, levels)}
            truth, _ = bruteforce_mate_classes(g)
            assert ours == truth

    def test_mate_graph_grouping(self):
        ex = load_worked_example()
        classes = search_mates(walk_profile(ex.graph), [1, 3, 9])
        assert len(distinct_mate_graphs(classes)) == 2

    def test_mates_stay_controllable(self):
        # controllability is preserved by generalized cospectrality
        ex = load_worked_example()
        for cls in search_mates(walk_profile(ex.graph), [1, 3, 9]):
            assert walk_profile(cls.mate).controllable

    def test_level_one_iff_permutation(self):
        ex = load_worked_example()
        for cls in search_mates(walk_profile(ex.graph), [1, 3, 9]):
            is_perm = sorted(cls.q.num.T.data) == sorted(
                IntMatrix.identity(10).data
            )
            assert (cls.level == 1) == is_perm


class TestIsomorphismFlag:
    """For a controllable graph Q is unique, so the flags need no isomorphism test."""

    def test_fixture_matches_networkx(self):
        ex = load_worked_example()
        classes = search_mates(walk_profile(ex.graph), [1, 3, 9])
        assert [c.level for c in classes] == [1, 3, 9]
        check_flags_against_networkx(ex.graph, classes)

    def test_seeded_searches_match_networkx(self):
        # the sweep's own levels (seed 42, n 6-12) plus level 1
        config = SweepConfig(n_min=6, n_max=12, seed=42)
        searched = 0
        for index in range(600):
            rec = sweep_one(config, index)
            if not rec.get("search", {}).get("classes"):
                continue
            g = parse_graph6(rec["graph6"])
            classes = search_mates(walk_profile(g), [1, *rec["search"]["levels"]])
            assert any(c.level > 1 for c in classes)
            check_flags_against_networkx(g, classes)
            searched += 1
        assert searched >= 3

    def test_canonical_keys_pairwise_distinct(self):
        # search_mates keeps no dedupe set: cliques are increasing index
        # tuples over distinct candidates, so their keys never collide
        ex = load_worked_example()
        searches = [(ex.graph, [1, 3, 9]), *pool_searches()]
        for g, levels in searches:
            keys = [c.q.canonical_key() for c in search_mates(walk_profile(g, ()), levels)]
            assert len(set(keys)) == len(keys)

    def test_duplicate_classes_counted_once(self):
        ex = load_worked_example()
        classes = search_mates(walk_profile(ex.graph), [1, 3, 9])
        assert len(distinct_mate_graphs(classes + classes)) == 2
