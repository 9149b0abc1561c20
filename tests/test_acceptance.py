"""Acceptance suite: every criterion at its stated tolerance (exact unless
noted), one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import random
import time

import pytest

from oracles import bruteforce_mate_classes, exhaustive_unit_kernel_exists, minor_gcd
from walklevel.arith import divisors
from walklevel.bounds import extract_four_cong_witness, level_bounds
from walklevel.fixtures import load_worked_example
from walklevel.graphs import generalized_cospectral, isomorphic, walk_profile
from walklevel.intmat import IntMatrix
from walklevel.matesearch import search_mates
from walklevel.ortho import conjugate
from walklevel.snf import dn_test, snf_int, snf_mod_pk
from walklevel.sweep import SweepConfig, derive_stream, random_graph, run_sweep

SWEEP_SEED = 42


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}  {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def worked():
    return load_worked_example()


@pytest.fixture(scope="module")
def sweep_report():
    t0 = time.monotonic()
    rep = run_sweep(SweepConfig(n_min=6, n_max=10, graph_count=500, seed=SWEEP_SEED))
    rep["_elapsed"] = time.monotonic() - t0
    return rep


class TestWorkedExampleReproduction:
    def test_a1_profile_exact(self, worked):
        t0 = time.monotonic()
        prof = walk_profile(worked.graph)
        ok = (
            prof.controllable
            and abs(prof.det_w) // 2**5 == 1539
            and 1539 == 3**4 * 19
            and prof.rank_p(3) == 9
        )
        report(
            "A1 fixture profile: controllable, |det W|/2^5 = 1539 = 3^4*19, rank_3 = 9",
            ok,
            f"det W = {prof.det_w} ({time.monotonic() - t0:.2f}s)",
        )

    def test_a2_fixture_matrices(self, worked):
        g = worked.graph
        q3, q9 = worked.q_level3, worked.q_level9
        checks = [q3.level == 3, q9.level == 9]
        # orthogonality and regularity are constructor-enforced; re-verify
        checks.append(q3.num.T @ q3.num == 9 * IntMatrix.identity(10))
        checks.append(q9.num.T @ q9.num == 81 * IntMatrix.identity(10))
        h1, h2 = conjugate(q3, g), conjugate(q9, g)
        checks.append(generalized_cospectral(g, h1))
        checks.append(generalized_cospectral(g, h2))
        checks.append(not isomorphic(g, h1))
        checks.append(not isomorphic(g, h2))
        report(
            "A2 fixture matrices: levels 3 and 9, orthogonal, regular, "
            "mates cospectral and non-isomorphic",
            all(checks),
            str(checks),
        )

    def test_a3_level_bounds(self, worked):
        rep = level_bounds(walk_profile(worked.graph))
        exponents = {e.prime: e.exponent for e in rep.entries}
        ok = (
            exponents[3] == 2
            and exponents[19] == 0
            and exponents[2] == 0
            and rep.overall_divisor == 9
        )
        report("A3 level bounds: v_3 <= 2, v_19 = 0, 2-adic 0, level | 9", ok,
               str(rep.as_dict()))

    def test_a4_search_finds_exactly_two(self, worked):
        t0 = time.monotonic()
        classes = search_mates(walk_profile(worked.graph), [1, 3, 9])
        nontrivial = {c.q.canonical_key() for c in classes if c.level > 1}
        expected = {worked.q_level3.canonical_key(), worked.q_level9.canonical_key()}
        report(
            "A4 search over levels {1,3,9}: exactly the two known classes",
            nontrivial == expected and len(classes) == 3,
            f"{len(classes)} classes ({time.monotonic() - t0:.2f}s)",
        )

    def test_a5_witness_congruences(self, worked):
        wit = extract_four_cong_witness(walk_profile(worked.graph), worked.q_level9, 3)
        ok = wit.tau == 2 and all(wit.checks)
        report(
            "A5 witness at level 9, p = 3: tau = 2, congruences mod 81/81/9/9",
            ok,
            f"tau = {wit.tau}, checks = {wit.checks}",
        )


class TestSnfOracleSuite:
    def test_b_minor_gcd_suite(self):
        t0 = time.monotonic()
        rng = random.Random(2025)
        trials = 0
        for _ in range(220):
            n = rng.randint(1, 4)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            res = snf_int(m)
            rows = [list(r) for r in m.data]
            prod = 1
            for k in range(1, n + 1):
                g = minor_gcd(rows, k)
                if k <= res.rank:
                    prod *= res.invariant_factors[k - 1]
                    assert prod == g, (m, k)
                else:
                    assert g == 0, (m, k)
            trials += 1
        dt = time.monotonic() - t0
        report(
            "B Smith-form oracle: factor products equal minor gcds on 220 "
            "random matrices",
            trials >= 200 and dt < 30,
            f"{trials} matrices in {dt:.1f}s (< 30s)",
        )


class TestProjectionFixture:
    def test_c_diagonal_projection(self):
        m = IntMatrix.diag([2, 10, 30, 270])
        s3 = [snf_mod_pk(m, 3, 1).S[i, i] for i in range(4)]
        s9 = [snf_mod_pk(m, 3, 2).S[i, i] for i in range(4)]
        ok = s3 == [1, 1, 0, 0] and s9 == [1, 1, 3, 0]
        report(
            "C projection fixture: diag(2,10,30,270) -> (1,1,0,0) mod 3, "
            "(1,1,3,0) mod 9",
            ok,
            f"mod3 = {s3}, mod9 = {s9}",
        )


class TestUnitKernelOracle:
    def test_d_unit_kernel_suite(self):
        t0 = time.monotonic()
        rng = random.Random(404)
        trials = 0
        for _ in range(220):
            n = rng.randint(1, 3)
            p = rng.choice([3, 5])
            k = rng.choice([1, 2])
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            got, z = dn_test(m, p, k)
            want = exhaustive_unit_kernel_exists([list(r) for r in m.data], p, k)
            assert got == want, (m, p, k)
            if got:
                assert any(x % p for x in z)
                assert all(v % p**k == 0 for v in m.mat_vec(z))
            trials += 1
        dt = time.monotonic() - t0
        report(
            "D unit-kernel test agrees with exhaustive search on 220 random "
            "(M, p, k)",
            trials >= 200 and dt < 60,
            f"{trials} cases in {dt:.1f}s (< 60s)",
        )


class TestTheoremSweep:
    def test_e_half_valuation_sweep(self, sweep_report):
        agg = sweep_report["aggregate"]
        ok = (
            agg["graphs"] == 500
            and agg["bound_violations"] == []
            and agg["lemma_failures"] == []
            and sweep_report["_elapsed"] < 600
        )
        report(
            "E sweep of 500 controllable graphs: zero half-valuation "
            "violations, all lemma checks pass",
            ok,
            f"searched {agg['searched']}, witnesses {agg['witnesses_checked']}, "
            f"mates {agg['mates_found']} in {sweep_report['_elapsed']:.1f}s (< 600s)",
        )

    def test_g_mate_count_consistency(self, sweep_report):
        agg = sweep_report["aggregate"]
        checked = sum(
            1 for rec in sweep_report["graphs"] if "mate_bound_check" in rec
        )
        ok = agg["mate_bound_violations"] == []
        report(
            "G mate-count bounds: found <= improved <= basic on every "
            "hypothesis-satisfying sweep graph",
            ok,
            f"{checked} graphs checked, {len(agg['mate_bound_violations'])} violations",
        )


class TestMateSearchCompleteness:
    def test_f_completeness_oracle(self):
        t0 = time.monotonic()
        count = 0
        attempts = 0
        index = 0
        while count < 20:
            n = 6 if count % 2 == 0 else 7
            rng_graph = None
            while rng_graph is None:
                g = random_graph(derive_stream(777, index, attempts), n, 1, 2)
                attempts += 1
                if walk_profile(g).controllable:
                    rng_graph = g
            index += 1
            prof = walk_profile(rng_graph)
            levels = divisors(prof.factor(prof.d_n))
            ours = {c.q.canonical_key() for c in search_mates(prof, levels)}
            truth, _ = bruteforce_mate_classes(rng_graph)
            assert ours == truth, f"graph {index - 1} (n={n}): {ours} != {truth}"
            count += 1
        dt = time.monotonic() - t0
        report(
            "F completeness: lattice search equals exhaustive enumeration on "
            "20 random controllable graphs (n <= 7)",
            count == 20 and dt < 600,
            f"{count} graphs in {dt:.1f}s (< 600s)",
        )
