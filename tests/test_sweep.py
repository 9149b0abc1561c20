"""Sweep engine: RNG portability, reproducibility, worker independence."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from oracles import random_graph_below, unmix64
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

import walklevel
from walklevel import arith, graphs, intmat, matesearch, sweep
from walklevel.graphs import Graph, walk_matrix
from walklevel.sweep import (
    _GAMMA,
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

    # the last two reject 1/4 and about 1/2 of all outputs
    @pytest.mark.parametrize("num, den", [
        (1, 2), (1, 3), (2, 7), (0, 1), (1, 1), (1 << 62, 3 << 62), (5, (1 << 63) + 1),
    ])
    def test_same_draws_as_below(self, num, den):
        # the inline SplitMix64 steps pick the same edges as one below() per
        # pair and leave the stream where below() leaves it
        outputs = pairs = 0
        for n in range(1, 17):
            for seed, index, attempt in [(0, 0, 0), (1, 2, 3), (42, 7, 0), (101, 999, 5),
                                         (2026, 3, 9999), (1 << 63, 1, 1)]:
                ours, ref = derive_stream(seed, index, attempt), derive_stream(seed, index, attempt)
                start = ref.state
                assert random_graph(ours, n, num, den).adj == random_graph_below(ref, n, num, den)
                assert ours.state == ref.state
                outputs += outputs_between(start, ref.state)
                pairs += n * (n - 1) // 2
        assert outputs > pairs if den >= 1 << 62 else outputs == pairs

    @pytest.mark.parametrize("den", [3, 7])
    def test_rejected_output_is_skipped(self, den):
        # 2^64 - 1 lies at or above the rejection limit 2^64 - (2^64 mod den)
        # for den 3 and 7; planted as the k-th output (the first, a middle and
        # the last pair), pair k's edge comes from output k + 1 and every later
        # pair's from the output after its own
        for n in (2, 3, 5, 9, 16):
            pairs = n * (n - 1) // 2
            for k in sorted({1, (pairs + 1) // 2, pairs}):
                start = (unmix64((1 << 64) - 1) - (k - 1) * _GAMMA) % (1 << 64)
                ours, ref = SplitMix64(start), SplitMix64(start)
                assert random_graph(ours, n, 1, den).adj == random_graph_below(ref, n, 1, den)
                assert ours.state == ref.state
                assert outputs_between(start, ours.state) == pairs + 1


def same_as_below(state, n, num, den):
    """The kernel's rows and end state equal one below() per pair from ``state``;
    returns how many outputs the draw used."""
    rows, end = sweep._draw_rows(state, n, num, den)
    ref = SplitMix64(state)
    assert rows == random_graph_below(ref, n, num, den)
    assert end == ref.state
    return outputs_between(state, end)


class TestDrawKernel:
    """sweep._draw_rows against the frozen one-below()-per-pair draw."""

    @pytest.mark.parametrize("num, den", [(1, 2), (1, 3), (3, 8), (2, 7)])
    def test_random_states_up_to_780_lanes(self, num, den):
        rng = random.Random(den)
        for n in range(41):
            for _ in range(3):
                same_as_below(rng.getrandbits(64), n, num, den)

    @pytest.mark.parametrize("den", [1, 2, 8, 1 << 64])
    def test_power_of_two_denominators(self, den):
        # no output is rejected: each draw uses exactly one output per pair
        rng = random.Random(den)
        for num in sorted({0, 1, den - 1, den, den + 1, 3 * den}):
            for n in (0, 1, 2, 7, 12, 23):
                state = rng.getrandbits(64)
                assert same_as_below(state, n, num, den) == n * (n - 1) // 2

    @pytest.mark.parametrize("num, den", [
        (1, 3), (4, 7), (1 << 62, 3 << 62), (5, (1 << 63) + 1), (1, (1 << 64) - 1),
        (0, 3), (3, 3), (9, 7), (0, 3 << 62), (3 << 62, 3 << 62),
    ])
    def test_other_denominators(self, num, den):
        # (2^62, 3 * 2^62) rejects a quarter of all outputs (2^64 mod den is
        # 2^62), (5, 2^63 + 1) about half, so most of their draws take more
        # than one batch; the others reject one output in 2^61 or fewer
        rng = random.Random(num ^ den)
        used = pairs = 0
        for n in (0, 1, 2, 5, 12, 20, 33):
            for _ in range(3):
                used += same_as_below(rng.getrandbits(64), n, num, den)
                pairs += n * (n - 1) // 2
        assert used > pairs if (1 << 64) % den >= 1 << 62 else used == pairs


class TestDenominatorRange:
    """A denominator above 2^64 makes the rejection limit 0, so no output would
    ever be accepted; each entry point refuses it before drawing."""

    def test_below(self):
        with pytest.raises(ValueError, match="at most 2\\^64"):
            SplitMix64(1).below((1 << 64) + 1)
        assert SplitMix64(1).below(1 << 64) == SplitMix64(1).next_u64()

    @pytest.mark.parametrize("den", [(1 << 65) + 1, (1 << 64) + 1, 0, -2])
    def test_random_graph(self, den):
        rng = SplitMix64(1)
        with pytest.raises(ValueError, match="denominator must be in 1..2\\^64"):
            random_graph(rng, 3, 1, den)
        assert rng.state == 1

    def test_sweep_config(self):
        with pytest.raises(ValueError, match="denominator must be at most 2\\^64"):
            SweepConfig(edge_prob_num=1, edge_prob_den=(1 << 64) + 1)
        # 2^64 itself is allowed: the edge test reads a whole output
        num, den = 1 << 63, 1 << 64
        rec = sweep_one(SweepConfig(n_min=6, n_max=6, edge_prob_num=num, edge_prob_den=den,
                                    mates=False), 0)
        adj = random_graph_below(derive_stream(0, 0, rec["attempts"] - 1), 6, num, den)
        assert rec["profile"]["det_w"] == intmat.det(walk_matrix(Graph(adj)))


def outputs_between(start: int, end: int) -> int:
    """How many SplitMix64 outputs take the state from start to end."""
    return (end - start) * pow(_GAMMA, -1, 1 << 64) % (1 << 64)


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

    @pytest.mark.parametrize("workers, count, cpus, started", [
        (5000, 4, 64, 4), (5000, 50, 2, 2), (3, 50, 8, 3),
        (5000, 1, 64, None), (4, 4, 1, None), (4, 4, None, None), (4, 0, 8, None),
    ])
    def test_pool_capped_at_slots_and_cpus(self, workers, count, cpus, started, monkeypatch):
        # a fake pool that records its size and maps in this process: no process starts
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        config = SweepConfig(graph_count=count, seed=13, n_min=6, n_max=7, workers=workers)
        report = run_sweep(config)
        assert sizes == ([] if started is None else [started])
        assert report["config"]["workers"] == workers
        serial = run_sweep(SweepConfig(graph_count=count, seed=13, n_min=6, n_max=7))
        serial["config"]["workers"] = workers
        assert report_json(report) == report_json(serial)

    def test_import_leaves_out_the_process_pool(self):
        # only run_sweep with workers > 1 needs concurrent.futures
        src = Path(walklevel.__file__).resolve().parent.parent
        code = ("import sys, walklevel, walklevel.cli; "
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out == "[]\n"

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

    @pytest.mark.parametrize("primes", [(9,), (4,), (1,), (2,), (0,), (-3,), (3, 9)])
    def test_primes_must_be_odd_primes(self, primes):
        # only odd primes are ever searched; any other value would search nothing
        with pytest.raises(ValueError, match="odd primes"):
            SweepConfig(primes=primes)

    @pytest.mark.parametrize("field, value, message", [
        ("graph_count", -1, "graph count must be at least 0, got -1"),
        ("level_cap", 0, "level cap must be at least 1, got 0"),
        ("level_cap", -1, "level cap must be at least 1, got -1"),
        ("workers", 0, "workers must be at least 1, got 0"),
        ("workers", -2, "workers must be at least 1, got -2"),
    ])
    def test_bad_counts_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{field: value})

    def test_smallest_counts_accepted(self):
        cfg = SweepConfig(graph_count=0, level_cap=1, workers=1)
        assert run_sweep(cfg)["graphs"] == []

    def test_aggregate_consistency(self):
        cfg = SweepConfig(graph_count=30, seed=42, n_min=6, n_max=10)
        rep = run_sweep(cfg)
        agg = rep["aggregate"]
        accepted = sum(v["accepted"] for v in agg["controllable_acceptance"].values())
        assert accepted == cfg.graph_count
        assert agg["bound_violations"] == []
        assert agg["lemma_failures"] == []

    def test_exhausted_slots_are_not_accepted(self):
        # no 5-vertex graph is controllable: both n = 5 slots are exhausted
        # without a draw, and they count as not accepted
        rep = run_sweep(SweepConfig(n_min=5, n_max=6, graph_count=4, seed=42, mates=False))
        exhausted = {}
        for rec in rep["graphs"]:
            exhausted.setdefault(rec["n"], []).append(rec.get("exhausted", False))
        assert exhausted == {5: [True, True], 6: [False, False]}
        acceptance = rep["aggregate"]["controllable_acceptance"]
        assert acceptance["5"] == {"accepted": 0, "attempts": 0}
        assert acceptance["6"]["accepted"] == 2

    def test_unfactored_slot_is_an_unknown_record(self, monkeypatch):
        # with no rho budget every normalized determinant that trial
        # division leaves composite is unfactored: those slots become
        # unknown records, and every other record is unchanged
        cfg = SweepConfig(n_min=10, n_max=16, seed=42, graph_count=40, mates=False)
        plain = run_sweep(cfg)
        monkeypatch.setattr(arith, "RHO_BUDGET", 0)
        rep = run_sweep(cfg)
        unknown = [5, 13, 19, 25, 26, 27, 30, 33, 34]
        assert len(rep["graphs"]) == 40
        assert [rec["index"] for rec in rep["graphs"] if "unknown" in rec] == unknown
        assert rep["aggregate"]["unknown_slots"] == unknown
        assert "unknown_slots" not in plain["aggregate"]
        for mine, theirs in zip(rep["graphs"], plain["graphs"]):
            if "unknown" not in mine:
                assert mine == theirs
                continue
            assert set(mine) == {"index", "n", "attempts", "graph6", "unknown"}
            assert mine["graph6"] == theirs["graph6"]
            assert mine["attempts"] == theirs["attempts"]
            info = mine["unknown"]
            nd = theirs["profile"]["normalized_det"]
            assert info["stage"] == "factorize" and info["normalized_det"] == nd
            assert abs(nd) % info["cofactor"] == 0 and info["cofactor"] > 1
            for p, e in info["factored"].items():
                assert abs(nd) % int(p) ** e == 0
        # unknown slots are accepted draws, and nothing else counts them
        agg, plain_agg = rep["aggregate"], plain["aggregate"]
        assert agg["controllable_acceptance"] == plain_agg["controllable_acceptance"]
        assert sum(agg["rules_fired"].values()) < sum(plain_agg["rules_fired"].values())

    def test_capped_search_is_reported_and_counted(self, monkeypatch):
        # at a candidate cap of 16, slot 32's level-49 kernel is too large:
        # the record names the cap and has no checks, and the aggregate
        # counts the slot as searched with no class
        monkeypatch.setattr(matesearch, "CANDIDATE_CAP", 16)
        cfg = SweepConfig(n_min=6, n_max=12, seed=42, graph_count=33)
        rec = sweep_one(cfg, 32)
        assert rec["n"] == 10
        assert rec["search"] == {
            "levels": [7, 49], "levels_over_cap": [], "classes": [],
            "cap_exceeded": "kernel of W^T mod 49 has more than 16 residue classes"}
        assert "witnesses" not in rec and "mates_found" not in rec
        rep = run_sweep(cfg)
        assert rep["graphs"][32] == rec
        searched = [r["index"] for r in rep["graphs"] if "search" in r and r["search"]["levels"]]
        assert searched == [32]
        assert (rep["aggregate"]["searched"], rep["aggregate"]["classes_found"]) == (1, 0)

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


def test_no_graph_on_two_to_five_vertices_is_controllable():
    # all 2 + 8 + 64 + 1,024 labelled graphs, W built column by column and
    # its det taken by sympy; so such a slot draws nothing
    count = 0
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            adj = [[0] * n for _ in range(n)]
            for k, (i, j) in enumerate(pairs):
                if bits >> k & 1:
                    adj[i][j] = adj[j][i] = 1
            cols = [[1] * n]
            for _ in range(n - 1):
                cols.append([sum(a * x for a, x in zip(row, cols[-1])) for row in adj])
            w = [[ZZ(col[i]) for col in cols] for i in range(n)]
            assert DomainMatrix(w, (n, n), ZZ).det() == 0
            count += 1
        for num, den in ((1, 2), (2, 7), (0, 1), (1, 1)):
            cfg = SweepConfig(n_min=n, n_max=n, edge_prob_num=num, edge_prob_den=den)
            assert sweep_one(cfg, 0) == {"index": 0, "n": n, "attempts": 0, "exhausted": True}
    assert count == 1098


def test_bareiss_runs_only_on_draws_with_distinct_walk_rows(count_calls, monkeypatch):
    # the row kernel runs once per draw, and only the accepted draw becomes
    # a Graph; a draw whose walk matrix has two equal rows is rejected
    # without a Bareiss pass; the accepted draw's W rows and its one Bareiss
    # pass feed its profile and the search, which rebuild neither
    draws = count_calls(sweep._draw_rows)
    walks = count_calls(graphs.walk_matrix)
    passes = count_calls(intmat._bareiss)
    built = []
    validate = Graph.__post_init__

    def counted(self):
        validate(self)
        built.append(self.adj)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    cfg = SweepConfig(n_min=6, n_max=12, seed=3)
    records = [sweep_one(cfg, i) for i in range(20)]
    monkeypatch.setattr(Graph, "__post_init__", validate)
    assert any(rec["search"]["levels"] for rec in records)
    assert len(draws) == sum(rec["attempts"] for rec in records)

    distinct_rows = []
    equal_rows = 0
    accepted, rejected = [], set()
    for rec in records:
        for attempt in range(rec["attempts"]):
            g = random_graph(derive_stream(cfg.seed, rec["index"], attempt), rec["n"], 1, 2)
            (accepted.append if attempt == rec["attempts"] - 1 else rejected.add)(g.adj)
            rows = list(walk_matrix(g).data)
            if len(set(rows)) == g.n:
                distinct_rows.append(rows)
            else:
                equal_rows += 1
    # the search builds the mates too, none of them a draw of these slots
    assert [adj for adj in built if adj in rejected or adj in accepted] == accepted
    assert equal_rows > 0
    assert len(distinct_rows) > len(records)  # some distinct-row draws are singular too
    assert passes == distinct_rows
    assert walks == []


@pytest.mark.parametrize("num, den", [(1, 2), (1, 3), (2, 7)])
def test_first_nonsingular_draw_is_accepted(num, den):
    # against sympy's det W: the draws a slot rejects, equal-row ones
    # included, are singular, and the draw it accepts is not
    cfg = SweepConfig(n_min=6, n_max=11, seed=7, edge_prob_num=num, edge_prob_den=den,
                      mates=False)
    equal_rows = 0
    for i in range(24):
        rec = sweep_one(cfg, i)
        for attempt in range(rec["attempts"]):
            g = random_graph(derive_stream(cfg.seed, i, attempt), rec["n"], num, den)
            rows = walk_matrix(g).data
            d = DomainMatrix([[ZZ(x) for x in row] for row in rows], (g.n, g.n), ZZ).det()
            assert (d != 0) == (attempt == rec["attempts"] - 1)
            if len(set(rows)) < g.n:
                assert d == 0
                equal_rows += 1
        assert rec["profile"]["det_w"] == d
    assert equal_rows > 0
