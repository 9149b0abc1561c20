"""Sweep engine: RNG portability, reproducibility, worker independence."""

from fractions import Fraction

from walklevel import graphs, intmat
from walklevel.sweep import (
    SplitMix64,
    SweepConfig,
    derive_stream,
    mix64,
    random_graph,
    report_json,
    run_sweep,
    sweep_one,
)


class TestSplitMix64:
    def test_reference_stream(self):
        # published SplitMix64 outputs for seed 1234567
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_zero_seed_reference(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535

    def test_mix_is_pure(self):
        assert mix64(42) == mix64(42)

    def test_below_range(self):
        rng = SplitMix64(9)
        draws = [rng.below(7) for _ in range(2000)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7


class TestRandomGraph:
    def test_edge_probability_exact(self):
        # p = 1 gives the complete graph, p = 0 the empty one
        full = random_graph(SplitMix64(1), 6, 1, 1)
        assert full.edge_count == 15
        empty = random_graph(SplitMix64(1), 6, 0, 1)
        assert empty.edge_count == 0

    def test_rational_probability_statistics(self):
        # 1/3 edge probability: the mean over many draws lands near 1/3
        total = 0
        draws = 300
        for i in range(draws):
            g = random_graph(derive_stream(5, i, 0), 8, 1, 3)
            total += g.edge_count
        mean = Fraction(total, draws * 28)
        assert abs(mean - Fraction(1, 3)) < Fraction(1, 20)

    def test_stream_isolation(self):
        a = random_graph(derive_stream(1, 0, 0), 8, 1, 2)
        b = random_graph(derive_stream(1, 1, 0), 8, 1, 2)
        assert a != b  # overwhelmingly; fixed seeds make this deterministic


class TestSweep:
    def test_record_deterministic(self):
        cfg = SweepConfig(graph_count=4, seed=99)
        assert sweep_one(cfg, 2) == sweep_one(cfg, 2)

    def test_byte_identical_reports(self):
        cfg = SweepConfig(graph_count=10, seed=42, n_min=6, n_max=9)
        assert report_json(run_sweep(cfg)) == report_json(run_sweep(cfg))

    def test_workers_do_not_change_output(self):
        base = SweepConfig(graph_count=8, seed=13, n_min=6, n_max=8)
        par = SweepConfig(graph_count=8, seed=13, n_min=6, n_max=8, workers=2)
        a = run_sweep(base)
        b = run_sweep(par)
        a["config"]["workers"] = b["config"]["workers"] = 0
        assert report_json(a) == report_json(b)

    def test_no_mates_mode(self):
        cfg = SweepConfig(graph_count=5, seed=1, mates=False)
        rep = run_sweep(cfg)
        assert all("search" not in rec for rec in rep["graphs"])

    def test_prime_restriction(self):
        # restricting to a prime dividing nothing searches nothing
        cfg = SweepConfig(graph_count=30, seed=42, primes=(101,))
        rep = run_sweep(cfg)
        assert rep["config"]["primes"] == [101]
        assert rep["aggregate"]["searched"] == 0

    def test_aggregate_consistency(self):
        cfg = SweepConfig(graph_count=30, seed=42, n_min=6, n_max=10)
        rep = run_sweep(cfg)
        agg = rep["aggregate"]
        accepted = sum(v["accepted"] for v in agg["controllable_acceptance"].values())
        assert accepted == cfg.graph_count
        assert agg["bound_violations"] == []
        assert agg["lemma_failures"] == []

    def test_mates_past_isomorphism_size_limit(self):
        # slot 15 is a 14-vertex graph with a level-3 mate; the search no
        # longer calls the isomorphism test, which stops at 12 vertices
        rec = sweep_one(SweepConfig(n_min=14, n_max=16, seed=42), 15)
        assert rec["n"] == 14
        assert [c["level"] for c in rec["search"]["classes"]] == [3]
        assert not rec["search"]["classes"][0]["isomorphic_to_input"]
        assert rec["mates_found"] == 1


class TestCertainEdgeProbability:
    """At edge probability 0 or 1 every draw is the same graph, so one is enough."""

    def test_complete_graph_exhausted_after_one_attempt(self):
        cfg = SweepConfig(n_min=8, n_max=8, edge_prob_num=1, edge_prob_den=1)
        assert sweep_one(cfg, 0) == {"index": 0, "n": 8, "attempts": 1, "exhausted": True}

    def test_empty_graph_exhausted_after_one_attempt(self):
        cfg = SweepConfig(n_min=8, n_max=8, edge_prob_num=0, edge_prob_den=3)
        assert sweep_one(cfg, 0) == {"index": 0, "n": 8, "attempts": 1, "exhausted": True}

    def test_single_vertex_still_accepted(self):
        for num in (0, 1):
            cfg = SweepConfig(n_min=1, n_max=1, edge_prob_num=num, edge_prob_den=1)
            rec = sweep_one(cfg, 0)
            assert rec["attempts"] == 1
            assert "exhausted" not in rec
            assert rec["profile"]["controllable"]


def test_accepted_draw_reuses_its_walk_matrix_and_det(count_calls):
    # W and the Bareiss pass (det W and the minor gcd h) of the accepted draw
    # feed its profile; nothing rebuilds them
    walks = count_calls(graphs.walk_matrix)
    dets = count_calls(intmat.bareiss)
    records = [sweep_one(SweepConfig(n_min=6, n_max=12, seed=3, mates=False), i)
               for i in range(20)]
    draws = sum(rec["attempts"] for rec in records)
    assert draws > len(records)
    assert len(walks) == draws
    assert len(dets) == draws
