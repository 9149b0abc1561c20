"""The walk profile's prime table is the only factorization of a graph's analysis.

``walk_profile`` factors the normalized determinant; the mate-count bounds
and the CLI's automatic levels read the table through
``WalkProfile.factor``, and the certificate and the family test read
``level_bounds``' report of it, calling neither ``factor`` nor ``rank_p``.
The guards count ``factorize`` and ``rank_mod_p`` at every name they are
bound to in the library (the table's ranks are read off the invariant
factors, so ``rank_mod_p`` never runs); the oracle recomputes the readers
from sympy's factorizations of the normalized determinant and d_n.
"""

import io
from math import prod

import pytest
from sympy import factorint, isprime

from walklevel import arith, graphs, snf
from walklevel.analysis import analyze
from walklevel.bounds import (
    dgs_certificate,
    family_membership,
    level_bounds,
    mate_count_bounds,
)
from walklevel.cli import main
from walklevel.fixtures import load_worked_example
from walklevel.graphs import (
    WalkProfile,
    emit_graph6,
    parse_graph6,
    walk_matrix,
    walk_profile,
)
from walklevel.intmat import det
from walklevel.sweep import SweepConfig, derive_stream, random_graph, sweep_one


@pytest.fixture
def factorize_calls(count_calls):
    """The arguments of every factorize call made through a walklevel module."""
    return count_calls(arith.factorize)


@pytest.fixture
def rank_mod_p_calls(count_calls):
    """Every rank_mod_p call made through a walklevel module."""
    return count_calls(snf.rank_mod_p)


def sweep_graphs(n_min, n_max, count):
    config = SweepConfig(n_min=n_min, n_max=n_max, seed=42, mates=False)
    return [parse_graph6(sweep_one(config, i)["graph6"]) for i in range(count)]


def seeded_graphs():
    """The first controllable draw for each seed 0-1 and n 6-16."""
    out = []
    for seed in (0, 1):
        for n in range(6, 17):
            for attempt in range(1000):
                g = random_graph(derive_stream(seed, n, attempt), n, 1, 2)
                if det(walk_matrix(g)):
                    out.append(g)
                    break
    return out


class TestFactorOnce:
    """One factorize call per graph, and no GF(p) elimination: the table's
    ranks are read off the invariant factors."""

    def test_analyze_factors_once_on_the_fixture(self, factorize_calls, rank_mod_p_calls):
        prof = walk_profile(load_worked_example().graph)
        rec = analyze(prof)
        assert factorize_calls == [prof.normalized_det]
        assert rec["dgs"]["status"] == "Unknown"
        assert prof.rank_p(3) == 9
        assert rank_mod_p_calls == []

    def test_analyze_factors_once_per_graph_at_n_14_to_16(self, factorize_calls,
                                                          rank_mod_p_calls):
        graphs = sweep_graphs(14, 16, 6)
        factorize_calls.clear()  # drawing them ran the sweep's own analysis
        for count, g in enumerate(graphs, start=1):
            analyze(walk_profile(g))
            assert len(factorize_calls) == count
        assert rank_mod_p_calls == []

    def test_mates_auto_levels_factor_once(self, factorize_calls, rank_mod_p_calls,
                                           tmp_path, capsys):
        path = tmp_path / "g.g6"
        path.write_text(emit_graph6(load_worked_example().graph) + "\n")
        assert main(["mates", str(path), "--json"]) == 0
        assert '"levels_searched":[3,9]' in capsys.readouterr().out
        assert len(factorize_calls) == 1
        assert rank_mod_p_calls == []


class TestProfileFactor:
    def test_fixture_matches_sympy(self):
        prof = walk_profile(load_worked_example().graph)
        for m in (prof.det_w, prof.normalized_det, prof.d_n, -prof.d_n, 1):
            assert prof.factor(m) == {int(p): e for p, e in factorint(abs(m)).items()}

    def test_partial_table_raises(self):
        prof = walk_profile(load_worked_example().graph, primes=[5])
        with pytest.raises(ValueError, match="cofactor 1539"):
            prof.factor(prof.normalized_det)
        assert prof.factor(1) == {}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            walk_profile(load_worked_example().graph).factor(0)


class TestUnknownProfile:
    """A normalized determinant the rho budget cannot split gives a profile
    with a cofactor, not an error: every caller reads the unknown record
    off that one profile, with one Bareiss pass and one factorize call."""

    # the slots of seed 42, n 10-16, that trial division leaves composite
    UNKNOWN = (5, 13, 19, 25, 26, 27, 30, 33, 34)
    CONFIG = SweepConfig(n_min=10, n_max=16, seed=42, mates=False)

    def test_profile_carries_the_cofactor(self, monkeypatch):
        monkeypatch.setattr(arith, "RHO_BUDGET", 0)
        for i in self.UNKNOWN:
            rec = sweep_one(self.CONFIG, i)
            g = parse_graph6(rec["graph6"])
            prof = walk_profile(g)
            nd = prof.normalized_det
            factored = {int(p): e for p, e in rec["unknown"]["factored"].items()}
            assert prof.cofactor == rec["unknown"]["cofactor"] > 1
            assert sorted(prof.primes) == sorted({2, *factored})
            assert prod(p**e for p, e in factored.items()) * prof.cofactor == abs(nd)
            assert not isprime(prof.cofactor)
            assert analyze(prof) == {"graph6": rec["graph6"], "unknown": rec["unknown"]}
            assert walk_profile(g, prof.primes).cofactor == 1  # a given table has none

    def test_one_profile_per_graph(self, monkeypatch, count_calls, capsys):
        monkeypatch.setattr(arith, "RHO_BUDGET", 0)
        profiles = count_calls(graphs._controllable_profile)
        passes = count_calls(snf._det_and_factors)
        factorize_calls = count_calls(arith.factorize)
        for i in self.UNKNOWN:
            rec = sweep_one(self.CONFIG, i)
            assert (len(profiles), len(factorize_calls)) == (rec["attempts"], 1)
            profiles.clear()
            factorize_calls.clear()
        g6 = sweep_one(self.CONFIG, 5)["graph6"]
        passes.clear()
        factorize_calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(g6 + "\n"))
        assert main(["analyze", "-"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(g6 + "\n"))
        assert main(["mates", "-"]) == 2
        assert (len(passes), len(factorize_calls)) == (2, 2)
        capsys.readouterr()


def test_readers_neither_factor_nor_read_ranks(monkeypatch):
    # the certificate and the family test read level_bounds' report only
    prof = walk_profile(load_worked_example().graph)
    bounds = level_bounds(prof)

    def refused(*args):
        raise AssertionError("a reader of the bound table factored or read a rank")

    monkeypatch.setattr(WalkProfile, "factor", refused)
    monkeypatch.setattr(WalkProfile, "rank_p", refused)
    assert dgs_certificate(prof, bounds).status == "Unknown"
    assert family_membership(prof, bounds).exponent is None


def oracle_dgs(prof):
    nd = prof.normalized_det
    odd_square_free = nd % 2 and all(e == 1 for e in factorint(abs(nd)).values())
    return "DGS" if odd_square_free else "Unknown"


def oracle_family(prof):
    nd = prof.normalized_det
    if nd % 2 == 0:
        return (None, None, None)
    heavy = [(int(p), e) for p, e in factorint(abs(nd)).items() if e >= 2]
    if len(heavy) != 1 or heavy[0][1] not in (2, 3):
        return (None, None, None)
    p, e = heavy[0]
    if prof.rank_p(p) != prof.n - 1:
        return (None, None, None)
    return (e, p, abs(nd) // p**e)


def oracle_mate_bounds(prof):
    d, n = prof.invariant_factors, prof.n
    if n < 2 or d[(n + 1) // 2 - 1] != 1 or d[n - 2] != 2:
        return (None, None)
    fac = factorint(d[n - 1])
    basic = prod(fac.values())
    improved = fac.get(2, 0) * prod(e // 2 + 1 for p, e in fac.items() if p != 2)
    return (basic - 1, improved - 1)


def test_table_readers_match_sympy_oracle():
    seen = {"dgs": 0, "family": 0, "mate_bounds": 0}
    for g in seeded_graphs() + [load_worked_example().graph]:
        prof = walk_profile(g)
        bounds = level_bounds(prof)
        cert = dgs_certificate(prof, bounds)
        fam = family_membership(prof, bounds)
        mcb = mate_count_bounds(prof)
        assert cert.status == oracle_dgs(prof), emit_graph6(g)
        assert (fam.exponent, fam.prime, fam.cofactor) == oracle_family(prof), emit_graph6(g)
        assert (mcb.basic, mcb.improved) == oracle_mate_bounds(prof), emit_graph6(g)
        seen["dgs"] += cert.status == "DGS"
        seen["family"] += fam.exponent in (2, 3)
        seen["mate_bounds"] += mcb.basic is not None
    assert all(seen.values()), seen
