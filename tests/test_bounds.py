"""Level-bound rules, certificates, witnesses, and lemma verification."""

import dataclasses
import json
import math
import random
from pathlib import Path

import pytest
from oracles import (
    FROZEN_AS_DICT,
    frozen_as_dict,
    solve_eigenvalue_mod_ref,
    verify_proof_lemmas_ref,
)
from sympy import Matrix, factorint
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors
from sympy.polys.domains import ZZ

from walklevel import snf
from walklevel import bounds
from walklevel.analysis import analyze, check_classes
from walklevel.bounds import (
    RULE_HALF_VALUATION,
    RULE_NONE,
    RULE_ODD_SQUAREFREE,
    RULE_TWO_ADIC_ODD,
    FourCongWitness,
    LevelBoundReport,
    PrimeBound,
    conjecture_check,
    dgs_certificate,
    extract_four_cong_witness,
    family_membership,
    level_bounds,
    mate_count_bounds,
    verify_proof_lemmas,
)
from walklevel.cli import main
from walklevel.fixtures import load_worked_example
from walklevel.graphs import Graph, WalkProfile, emit_graph6, parse_graph6, walk_profile
from walklevel.intmat import IntMatrix
from walklevel.matesearch import search_mates
from walklevel.ortho import RatRegOrtho
from walklevel.sweep import SweepConfig, derive_stream, random_graph, sweep_one

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "mates_pool.txt"


def pool_graphs():
    """(graph, levels) for each line of the perfbench mates pool."""
    out = []
    for line in POOL.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            _, g6, levels = line.split()
            out.append((parse_graph6(g6), [int(x) for x in levels.split(",")]))
    return out


def synthetic_profile(n, det_w, primes):
    """A WalkProfile stub with just the fields the bound rules read; its
    graph is the edgeless one, which only gives n."""
    return WalkProfile(
        graph=Graph.from_edges(n, []),
        W=IntMatrix.identity(n),
        det_w=det_w,
        invariant_factors=(1,) * n,
        primes=primes,
    )


def factors_profile(invariant_factors):
    """A synthetic profile with these invariant factors whose table holds
    every prime of det W = d_1 * ... * d_n (factored by sympy)."""
    n = len(invariant_factors)
    det_w = math.prod(invariant_factors)
    primes = {int(p): (e, n - 1) for p, e in factorint(det_w).items()}
    return dataclasses.replace(synthetic_profile(n, det_w, primes),
                               invariant_factors=tuple(invariant_factors))


def by_prime(rep):
    """The report's entries keyed by their prime."""
    return {e.prime: e for e in rep.entries}


def certificate(prof):
    """The DGS certificate read off the profile's own bound table."""
    return dgs_certificate(prof, level_bounds(prof))


def family(prof):
    """The family test read off the profile's own bound table."""
    return family_membership(prof, level_bounds(prof))


class TestLevelBounds:
    def test_worked_example(self):
        prof = walk_profile(load_worked_example().graph)
        rep = level_bounds(prof)
        assert by_prime(rep)[3].exponent == 2
        assert by_prime(rep)[3].rule == RULE_HALF_VALUATION
        assert by_prime(rep)[19].exponent == 0
        assert by_prime(rep)[19].rule == RULE_ODD_SQUAREFREE
        assert by_prime(rep)[2].exponent == 0
        assert by_prime(rep)[2].rule == RULE_TWO_ADIC_ODD
        assert rep.overall_divisor == 9

    def test_odd_squarefree_all_zero(self):
        # normalized det 15 = 3 * 5: everything bounded at exponent 0
        prof = synthetic_profile(4, 15 * 4, {2: (2, 3), 3: (1, 3), 5: (1, 3)})
        rep = level_bounds(prof)
        assert all(e.exponent == 0 for e in rep.entries)
        assert rep.overall_divisor == 1

    def test_half_valuation_formula(self):
        # v_p = 3 with the rank condition: min(floor(3/2), 3-1) = 1
        prof = synthetic_profile(6, 27 * 8, {2: (3, 5), 3: (3, 5)})
        rep = level_bounds(prof)
        assert by_prime(rep)[3].exponent == 1
        assert by_prime(rep)[3].rule == RULE_HALF_VALUATION

    def test_rank_condition_missing(self):
        prof = synthetic_profile(6, 9 * 8, {2: (3, 4), 3: (2, 4)})
        rep = level_bounds(prof)
        assert by_prime(rep)[3].exponent is None
        assert by_prime(rep)[3].rule == RULE_NONE
        assert rep.overall_divisor is None

    def test_even_normalized_det_unbounded_at_two(self):
        prof = synthetic_profile(4, 2 * 3 * 4, {2: (3, 2), 3: (1, 3)})
        rep = level_bounds(prof)
        assert by_prime(rep)[2].exponent is None
        assert rep.overall_divisor is None

    def test_half_never_exceeds_minus_one(self):
        for v in range(2, 12):
            assert v // 2 <= v - 1

    def test_uncontrollable_rejected(self):
        prof = WalkProfile(Graph.from_edges(2, []), IntMatrix.identity(2), 0, (1, 1), {})
        with pytest.raises(ValueError):
            level_bounds(prof)

    def test_partial_table_claims_no_overall_divisor(self):
        # the fixture has mates at levels 3 and 9; a table of 5 alone must
        # not conclude that every admissible level divides 1
        g = load_worked_example().graph
        rep = level_bounds(walk_profile(g, primes=[5]))
        assert by_prime(rep)[2].exponent == 0
        assert rep.overall_divisor is None
        assert level_bounds(walk_profile(g, primes=[2, 3, 19])).overall_divisor == 9

    def test_table_without_two_gets_an_overall_divisor(self):
        # the two-adic rule decides p = 2 from nd = 105 alone, so the odd
        # primes 3, 5 and 7, which account for nd, bound every level
        prof = synthetic_profile(4, 420, {3: (1, 3), 5: (1, 3), 7: (1, 3)})
        rep = level_bounds(prof)
        assert by_prime(rep)[2].rule == RULE_TWO_ADIC_ODD
        assert rep.overall_divisor == 1
        g = load_worked_example().graph
        assert level_bounds(walk_profile(g, primes=[3, 19])).overall_divisor == 9


class TestDgsCertificate:
    def test_worked_example_unknown(self):
        cert = certificate(walk_profile(load_worked_example().graph))
        assert cert.status == "Unknown"
        assert "square-free" in cert.reason

    def test_odd_squarefree_certified(self):
        prof = synthetic_profile(4, 105 * 4, {3: (1, 3), 5: (1, 3), 7: (1, 3)})
        assert certificate(prof).status == "DGS"

    def test_even_unknown(self):
        prof = synthetic_profile(4, 6 * 4, {2: (3, 2), 3: (1, 3)})
        cert = certificate(prof)
        assert cert.status == "Unknown" and "even" in cert.reason

    def test_reads_the_overall_divisor(self):
        # the fixture's own table gives 9; a table giving 1 certifies it
        prof = walk_profile(load_worked_example().graph)
        table = LevelBoundReport((PrimeBound(2, 0, RULE_TWO_ADIC_ODD),), 1)
        assert dgs_certificate(prof, table).status == "DGS"

    def test_partial_table_is_unknown_for_its_gap(self):
        # nd = 3^4 * 19, but the table holds 5 alone: no table prime
        # shows a square, so the reason names the table
        prof = walk_profile(load_worked_example().graph, primes=[5])
        cert = certificate(prof)
        assert cert.status == "Unknown"
        assert cert.reason == ("the prime table [5] leaves part of the normalized "
                               f"determinant {prof.normalized_det} out")
        assert family(prof) == bounds.FamilyMembership(None, None, None)


class TestFamilyMembership:
    def test_square_family(self):
        prof = synthetic_profile(8, 9 * 35 * 16, {3: (2, 7), 5: (1, 7), 7: (1, 7)})
        fam = family(prof)
        assert fam.exponent == 2 and fam.prime == 3 and fam.cofactor == 35
        assert fam.exponent == 2

    def test_cube_family_only(self):
        prof = synthetic_profile(8, 27 * 5 * 16, {3: (3, 7), 5: (1, 7)})
        fam = family(prof)
        assert fam.exponent == 3 and fam.prime == 3 and fam.cofactor == 5
        assert fam.exponent in (2, 3)  # a family member
        assert fam.exponent != 2  # outside the square family

    def test_worked_example_neither(self):
        fam = family(walk_profile(load_worked_example().graph))
        assert fam.exponent not in (2, 3)

    def test_reads_the_overall_divisor(self):
        # the fixture's own table gives 9 = 3^2; a table giving 3 makes it
        # a member, with its exponent v_3(det W) = 4 and cofactor 19
        prof = walk_profile(load_worked_example().graph)
        table = LevelBoundReport((PrimeBound(3, 1, RULE_HALF_VALUATION),), 3)
        fam = family_membership(prof, table)
        assert (fam.exponent, fam.prime, fam.cofactor) == (4, 3, 19)

    def test_rank_condition_required(self):
        prof = synthetic_profile(8, 9 * 35 * 16, {3: (2, 6), 5: (1, 7), 7: (1, 7)})
        assert family(prof).exponent not in (2, 3)

    def test_member_keeps_uniqueness_promise(self):
        # frozen sweep find: normalized det 3^2, one mate exactly; family
        # membership promises at most one, and the complete search agrees
        from walklevel.arith import divisors
        from walklevel.graphs import parse_graph6
        from walklevel.matesearch import distinct_mate_graphs, search_mates

        g = parse_graph6("HTAWQhV")
        prof = walk_profile(g)
        fam = family(prof)
        assert fam.exponent == 2 and fam.prime == 3
        classes = search_mates(prof, divisors(prof.factor(prof.d_n)))
        assert len(distinct_mate_graphs(classes)) == 1


class TestMateCountBounds:
    def test_formula_examples(self):
        # d_n = 2 * 3^4
        b = mate_count_bounds(factors_profile((1, 1, 1, 2, 2 * 81)))
        assert (b.basic, b.improved) == (3, 2)
        # d_n = 2 * p^2: uniqueness
        b = mate_count_bounds(factors_profile((1, 1, 1, 2, 2 * 49)))
        assert (b.basic, b.improved) == (1, 1)
        # d_n = 4 * 9 * 25
        b = mate_count_bounds(factors_profile((1, 1, 1, 2, 4 * 9 * 25)))
        assert (b.basic, b.improved) == (7, 7)

    def test_hypotheses_unmet(self):
        b = mate_count_bounds(factors_profile((1, 1, 2, 2, 12)))
        assert b.basic is None and "d_3" in b.reason
        b = mate_count_bounds(factors_profile((1, 1, 1, 4, 12)))
        assert b.basic is None and "d_4" in b.reason

    def test_improved_never_exceeds_basic(self):
        rng = random.Random(19)
        for _ in range(200):
            m1 = rng.randint(1, 5)
            odd = [(p, rng.randint(1, 5)) for p in rng.sample([3, 5, 7, 11, 13], rng.randint(0, 3))]
            d_n = 2**m1
            for p, e in odd:
                d_n *= p**e
            b = mate_count_bounds(factors_profile((1,) * 3 + (2, d_n)))
            assert b.basic is not None
            assert b.improved <= b.basic

    def test_worked_example(self):
        prof = walk_profile(load_worked_example().graph)
        b = mate_count_bounds(prof)
        assert (b.basic, b.improved) == (3, 2)


class TestWitnessExtraction:
    def test_level9_prime3(self):
        ex = load_worked_example()
        wit = extract_four_cong_witness(walk_profile(ex.graph), ex.q_level9, 3)
        assert wit.tau == 2
        assert all(wit.checks)
        assert any(x % 3 for x in wit.z0)

    def test_level3_prime3(self):
        ex = load_worked_example()
        wit = extract_four_cong_witness(walk_profile(ex.graph), ex.q_level3, 3)
        assert wit.tau == 1
        assert all(wit.checks)

    def test_lowest_index_column_deterministic(self):
        ex = load_worked_example()
        wit = extract_four_cong_witness(walk_profile(ex.graph), ex.q_level9, 3)
        cols = list(zip(*ex.q_level9.num.data))
        first = next(c for c in cols if any(x % 3 for x in c))
        assert wit.z0 == first

    def test_permutation_rejected(self):
        ex = load_worked_example()
        with pytest.raises(ValueError, match="tau = 0"):
            extract_four_cong_witness(walk_profile(ex.graph), RatRegOrtho(IntMatrix.identity(10), 1), 3)

    def test_even_prime_rejected(self):
        ex = load_worked_example()
        with pytest.raises(ValueError):
            extract_four_cong_witness(walk_profile(ex.graph), ex.q_level9, 2)

    def test_eigenvalue_needs_the_inverse_mod_p_tau(self):
        # relabelings of the fixture move other unit entries of the level-9
        # witness to its pivot; at a pivot other than +-1 mod 9, an inverse
        # taken mod 3 alone would give the wrong lambda0
        ex = load_worked_example()
        adj, num = ex.graph.adj, ex.q_level9.num.data
        pivots = set()
        for shift in range(10):
            perm = [(i + shift) % 10 for i in range(10)]
            g = Graph(tuple(tuple(adj[i][j] for j in perm) for i in perm))
            q = RatRegOrtho(IntMatrix([[num[i][j] for j in perm] for i in perm]), 9)
            wit = extract_four_cong_witness(walk_profile(g, ()), q, 3)
            assert wit.lambda0 == solve_eigenvalue_mod_ref(g.adjacency(), wit.z0, 3, 2)
            pivots.add(next(x for x in wit.z0 if x % 3) % 9)
        assert pivots - {1, 8}

    def test_no_eigenvector_is_a_value_error(self):
        # the fixture's level-9 matrix on other graphs: its first unit column
        # is no eigenvector of A mod 9, which the digit-by-digit lift also rejects
        q = load_worked_example().q_level9
        z0 = next(c for c in zip(*q.num.data) if any(x % 3 for x in c))
        for i in range(40):
            g = random_graph(derive_stream(1, i, 0), 10, 1, 2)
            with pytest.raises(ValueError, match=r"no solution mod 3\^2; hypotheses"):
                extract_four_cong_witness(walk_profile(g, ()), q, 3)
            with pytest.raises(ValueError, match="hypotheses are violated"):
                solve_eigenvalue_mod_ref(g.adjacency(), z0, 3, 2)


class TestVerifyProofLemmas:
    def test_worked_example_both_witnesses(self):
        ex = load_worked_example()
        prof = walk_profile(ex.graph)
        for q in (ex.q_level3, ex.q_level9):
            wit = extract_four_cong_witness(prof, q, 3)
            rep = verify_proof_lemmas(prof, wit)
            assert rep.all_ok, rep
            assert rep.z1 is not None
            assert sum(rep.z1) % 3 != 0

    def test_report_serializable(self):
        import json

        ex = load_worked_example()
        prof = walk_profile(ex.graph)
        wit = extract_four_cong_witness(prof, ex.q_level9, 3)
        rep = verify_proof_lemmas(prof, wit)
        json.dumps(rep.as_dict())


class TestLemmaBranchInstances:
    """Frozen sweep finds exercising both z1 routes deterministically."""

    def _check(self, g6, p, expected_c):
        from walklevel.graphs import parse_graph6
        from walklevel.matesearch import search_mates

        prof = walk_profile(parse_graph6(g6))
        classes = [c for c in search_mates(prof, [p]) if c.level == p]
        assert classes, "instance lost its mate"
        wit = extract_four_cong_witness(prof, classes[0].q, p)
        rep = verify_proof_lemmas(prof, wit)
        assert wit.tau == 1
        assert rep.c == expected_c
        assert rep.all_ok, rep
        return prof, wit

    def test_direct_solvable_route(self):
        # shifted adjacency has a unit (n-1)-st factor: z1 solves directly
        self._check("HTAWQhV", 3, expected_c=0)

    def test_kernel_extension_route(self):
        # c = tau: z1 comes from completing {z0} to a rank-2 kernel basis
        self._check("Hh}boM{", 3, expected_c=1)

    def test_kernel_extension_route_p5(self):
        self._check(r"IWag\fxZG", 5, expected_c=1)

    @pytest.mark.parametrize("g6, p, c, reads", [
        ("HTAWQhV", 3, 0, 2),      # the augmented shape and the solve at c = 0
        ("Hh}boM{", 3, 1, 3),      # ... and the kernel at c = tau
        (r"IWag\fxZG", 5, 1, 3),
    ])
    def test_one_local_form_of_the_shifted_matrix(self, g6, p, c, reads, count_calls):
        prof, wit = self._check(g6, p, expected_c=c)
        local = count_calls(snf.snf_mod_pk)
        solves = count_calls(snf.solvable_mod_pk)
        kernels = count_calls(snf.kernel_shape)
        extends = count_calls(snf.extend_basis)
        moduli = count_calls(snf._diagonal_mod, 1)  # d = 0: an elimination over Z
        factors = count_calls(snf.invariant_factors)
        readers = [count_calls(f) for f in (snf._augmented_factors, snf._solve, snf._kernel)]
        verify_proof_lemmas(prof, wit)
        assert len(local) == 1
        assert solves == kernels == extends == []
        assert 0 not in moduli and factors == []
        forms = [res for calls in readers for res in calls]
        assert len(forms) == reads
        assert all(res is forms[0] for res in forms)
        assert forms[0].ring.modulus == p ** wit.tau

    def test_z0_outside_the_kernel_is_a_failed_conclusion(self):
        # at c = tau the kernel basis cannot hold a z0 with (A - lambda0 I) z0 != 0
        prof, wit = self._check("Hh}boM{", 3, expected_c=1)
        z0 = (wit.z0[0] + 1, *wit.z0[1:])
        bad = dataclasses.replace(wit, z0=z0)
        with pytest.raises(ValueError):
            verify_proof_lemmas_ref(prof.graph, bad)
        rep = verify_proof_lemmas(prof, bad)
        assert not rep.all_ok
        assert rep.z1 is None and rep.c is None
        assert "z0 is not in the kernel of A - lambda0 I mod 3^1" in rep.notes


@pytest.fixture(scope="module")
def pipeline_witnesses():
    """(profile, witness) of every lemma check on the fixture, on each
    perfbench pool graph at its listed levels and in the seed-42 n 6-12 sweep."""
    from walklevel import analysis
    from walklevel.sweep import SweepConfig, run_sweep

    ex = load_worked_example()
    prof = walk_profile(ex.graph)
    seen = [(prof, extract_four_cong_witness(prof, q, 3))
            for q in (ex.q_level3, ex.q_level9)]
    real = analysis.verify_proof_lemmas

    def record(prof, wit):
        seen.append((prof, wit))
        return real(prof, wit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "verify_proof_lemmas", record)
        for g, levels in pool_graphs():
            prof = walk_profile(g)
            check_classes(prof, search_mates(prof, levels))
        run_sweep(SweepConfig(n_min=6, n_max=12, graph_count=500, seed=42))
    return seen


class TestLemmaChecksAgainstReference:
    """verify_proof_lemmas against the frozen one with a Smith form per matrix."""

    @staticmethod
    def _compare(prof, wit):
        """The new report as a dict, and the route the reference took: "solve",
        "kernel", "none" (no z1) or "raised"."""
        got = verify_proof_lemmas(prof, wit).as_dict()
        try:
            want = verify_proof_lemmas_ref(prof.graph, wit).as_dict()
        except ValueError:
            assert not got["all_ok"], got
            assert f"z0 is not in the kernel of A - lambda0 I mod {wit.prime}^{wit.tau}" \
                in got["notes"]
            return got, "raised"
        assert got == want
        if got["c"] is None:
            return got, "none"
        return got, "kernel" if got["c"] == wit.tau else "solve"

    def test_pipeline_witnesses(self, pipeline_witnesses):
        routes = [self._compare(prof, wit)[1] for prof, wit in pipeline_witnesses]
        assert len(routes) >= 100
        assert set(routes) == {"solve", "kernel"}

    def test_hand_built_witnesses(self, pipeline_witnesses):
        rng = random.Random(11)
        routes = []
        shapes_failed = 0
        for _ in range(300):
            prof, wit = rng.choice(pipeline_witnesses)
            p, tau = wit.prime, wit.tau
            kind = rng.randrange(3)
            if kind == 0:  # random lambda0 and z0 at a random prime power
                p, tau = rng.choice((3, 5, 7)), rng.randint(1, 2)
                q = p ** tau
                z0 = tuple(rng.randrange(q) for _ in range(prof.n))
                wit = FourCongWitness(p, tau, z0, rng.randrange(q), wit.checks)
            elif kind == 1:  # the true lambda0, z0 moved by a random vector
                q = p ** tau
                z0 = tuple((x + rng.choice((0, 0, 1, p)) * rng.randrange(q)) % q
                           for x in wit.z0)
                wit = dataclasses.replace(wit, z0=z0)
            else:  # the true z0, a random lambda0
                wit = dataclasses.replace(wit, lambda0=rng.randrange(p ** tau))
            got, route = self._compare(prof, wit)
            routes.append(route)
            shapes_failed += not (got["augmented_snf_ok"] or got["shifted_snf_mod_ok"])
        assert {"solve", "kernel", "raised"} <= set(routes)
        assert shapes_failed >= 100


def test_eigenvalue_matches_the_lift(pipeline_witnesses):
    for prof, wit in pipeline_witnesses:
        assert wit.lambda0 == solve_eigenvalue_mod_ref(prof.graph.adjacency(), wit.z0,
                                                       wit.prime, wit.tau)


class TestOverZShape:
    """shifted_snf_over_z_ok is read off the local factors, which are gcd(f_i, p^tau)
    of the factors f_i over Z; here f comes from sympy."""

    @pytest.mark.filterwarnings("ignore:snf_mod_pk at p = 2")
    def test_local_condition_matches_sympy(self):
        rng = random.Random(5)
        singular = flags = 0
        for i in range(400):
            n = 3 + i % 6
            g = random_graph(derive_stream(5, i, 0), n, 1, 2)
            p, tau, lam = rng.choice((2, 3, 5, 7)), rng.randint(1, 3), rng.randint(-2, 2)
            q = p ** tau
            b = g.adjacency() - lam * IntMatrix.identity(n)
            f = [abs(int(x)) for x in sympy_invariant_factors(Matrix(b.data), domain=ZZ) if x]
            f += [0] * (n - len(f))
            over_z = f[n - 3] % p != 0 and f[n - 1] % q == 0
            fac = snf.snf_mod_pk(b, p, tau).invariant_factors
            local = n - 2 <= len(fac) <= n - 1 and all(x == 1 for x in fac[: n - 2])
            z0 = tuple(rng.randrange(q) for _ in range(n))
            rep = verify_proof_lemmas(walk_profile(g, ()),
                                      FourCongWitness(p, tau, z0, lam, (True,) * 4))
            assert over_z == local == rep.shifted_snf_over_z_ok, (emit_graph6(g), p, tau, lam)
            singular += f[n - 1] == 0
            flags += over_z
        assert singular >= 40
        assert 40 <= flags <= 360


class TestNoIntegerElimination:
    """The witness stage makes no Smith elimination over Z."""

    def test_mates_on_the_fixture(self, count_calls, tmp_path, capsys):
        moduli = count_calls(snf._diagonal_mod, 1)
        path = tmp_path / "g.g6"
        path.write_text(emit_graph6(load_worked_example().graph) + "\n")
        assert main(["mates", str(path), "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert len(rec["lemma_checks"]) == 2
        assert moduli and 0 not in moduli

    def test_check_classes_on_the_pool(self, count_calls):
        moduli = count_calls(snf._diagonal_mod, 1)
        checked = 0
        for g, levels in pool_graphs():
            prof = walk_profile(g)
            rec = check_classes(prof, search_mates(prof, levels))
            checked += len(rec["lemma_checks"])
        assert checked == 100
        assert moduli and 0 not in moduli


class TestConjectureCheck:
    def test_worked_example(self):
        prof = walk_profile(load_worked_example().graph)
        rep = conjecture_check(prof, [1, 3, 9])
        entry = next(e for e in rep.entries if e.prime == 3)
        assert entry.observed_max == 2
        assert entry.last_two_valuation_sum == 4
        assert entry.det_valuation == 4
        assert not rep.any_violation

    def test_no_mates_trivially_consistent(self):
        prof = walk_profile(load_worked_example().graph)
        rep = conjecture_check(prof, [])
        assert all(e.observed_max == 0 for e in rep.entries)
        assert not rep.any_violation

    def test_violation_flagged_not_raised(self):
        prof = walk_profile(load_worked_example().graph)
        rep = conjecture_check(prof, [3**5])  # impossible level, synthetic
        assert rep.any_violation  # flagged as a finding only


class TestReportSerialization:
    """One as_dict rule (bounds.Report) for the bound reports."""

    def test_same_dicts_as_the_frozen_bodies(self, monkeypatch, tmp_path):
        # record every report serialized while the fixture, the mates pool
        # and 200 sweep slots are analyzed, searched and checked
        seen = []
        for name in FROZEN_AS_DICT:
            cls = getattr(bounds, name)

            def recorded(self, _as_dict=cls.as_dict):
                out = _as_dict(self)
                seen.append((self, out))
                return out

            monkeypatch.setattr(cls, "as_dict", recorded)
        g = load_worked_example().graph
        for g, levels in [(g, [1, 3, 9]), *pool_graphs()]:
            prof = walk_profile(g)
            analyze(prof)
            level_bounds(prof).as_dict()
            check_classes(prof, search_mates(prof, levels))
        config = SweepConfig(n_min=6, n_max=12, graph_count=200, seed=42)
        for i in range(config.graph_count):
            sweep_one(config, i)
        assert {type(rep).__name__ for rep, _ in seen} == set(FROZEN_AS_DICT)
        for rep, out in seen:
            # json.dumps without sort_keys compares key order too
            assert json.dumps(out) == json.dumps(frozen_as_dict(rep)), rep

    def test_plain_report_keys_are_its_fields(self):
        g = load_worked_example().graph
        prof = walk_profile(g)
        cls = search_mates(prof, [3])[0]
        wit = extract_four_cong_witness(prof, cls.q, 3)
        lemma = verify_proof_lemmas(prof, wit)
        bound_rep = level_bounds(prof)
        conj = conjecture_check(prof, [3])
        plain = [*bound_rep.entries, dgs_certificate(prof, bound_rep),
                 family_membership(prof, bound_rep),
                 mate_count_bounds(prof), wit, *conj.entries]
        assert len({type(rep) for rep in plain}) == 6
        for rep in plain:
            assert "as_dict" not in vars(type(rep))
            assert list(rep.as_dict()) == [f.name for f in dataclasses.fields(rep)]
        names = [f.name for f in dataclasses.fields(lemma)]
        assert names[-1] == "notes"
        assert list(lemma.as_dict()) == [*names[:-1], "all_ok", "notes"]
        assert list(conj.as_dict()) == ["entries", "any_violation"]
        assert list(bound_rep.as_dict()) == ["per_prime", "overall_divisor"]
