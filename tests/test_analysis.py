"""The shared per-graph pipeline: one record format and one class check."""

import dataclasses
import io
import json

import pytest

from walklevel import cli
from walklevel.analysis import analyze, check_classes
from walklevel.bounds import extract_four_cong_witness, verify_proof_lemmas
from walklevel.fixtures import load_worked_example
from walklevel.graphs import Graph, emit_graph6, parse_graph6, walk_profile
from walklevel.matesearch import enumerate_columns, search_mates
from walklevel.sweep import SweepConfig, derive_stream, random_graph, sweep_one


def lowered_at_3(prof):
    """The profile with v_3(det W) lowered from 4 to 3, so the bound is 3^1."""
    primes = dict(prof.primes)
    primes[3] = (3, primes[3][1])
    return dataclasses.replace(prof, primes=primes)


class TestAnalyze:
    def test_fixture_record(self):
        g = load_worked_example().graph
        prof, rec = analyze(g)
        assert prof == walk_profile(g)
        assert rec["graph6"] == emit_graph6(g)
        assert rec["bounds"]["overall_divisor"] == 9
        assert set(rec) == {"graph6", "profile", "bounds", "dgs", "family", "mate_bounds"}

    def test_uncontrollable_has_profile_only(self):
        prof, rec = analyze(parse_graph6("A_"))
        assert not prof.controllable
        assert set(rec) == {"graph6", "profile"}

    def test_sweep_records_carry_the_same_analysis(self):
        config = SweepConfig(n_min=6, n_max=9, seed=5, mates=False)
        for index in range(8):
            rec = sweep_one(config, index)
            _, want = analyze(parse_graph6(rec["graph6"]))
            assert {k: rec[k] for k in want} == want


class TestCheckClasses:
    def test_fixture_has_no_violation(self):
        g = load_worked_example().graph
        prof = walk_profile(g)
        checked = check_classes(g, prof, search_mates(g, [1, 3, 9]))
        assert checked["bound_check"] == {"violations": []}
        assert [c["level"] for c in checked["classes"]] == [1, 3, 9]
        assert [w["tau"] for w in checked["witnesses"]] == [1, 2]
        assert all(chk["all_ok"] for chk in checked["lemma_checks"])

    def test_lowered_valuation_flags_level_nine(self):
        g = load_worked_example().graph
        prof = lowered_at_3(walk_profile(g))
        checked = check_classes(g, prof, search_mates(g, [3, 9]))
        assert checked["bound_check"]["violations"] == [{"prime": 3, "level": 9, "tau": 2}]

    def test_mates_exits_3_on_a_violated_bound(self, monkeypatch, capsys):
        real = cli.walk_profile
        monkeypatch.setattr(cli, "walk_profile", lambda g: lowered_at_3(real(g)))
        text = emit_graph6(load_worked_example().graph) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli.main(["mates", "-", "--levels", "3,9", "--json"]) == 3
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["bound_check"]["violations"] == [{"prime": 3, "level": 9, "tau": 2}]
        assert "level bound failed" in captured.err


class TestForeignProfile:
    """A walk profile describes one graph; every stage refuses another's."""

    def test_each_stage_refuses_it(self):
        g = load_worked_example().graph
        h = random_graph(derive_stream(1, 0, 0), 10, 1, 2)
        assert emit_graph6(h) == "I?Xxn^ak_"
        other = walk_profile(h)
        prof = walk_profile(Graph(g.adj))  # an equal graph's profile is g's own
        classes = search_mates(g, [3, 9], profile=prof)
        assert [c.level for c in classes] == [3, 9]
        assert len(enumerate_columns(g, 3, profile=prof)) == 16
        assert len(check_classes(g, prof, classes)["witnesses"]) == 2
        wit = extract_four_cong_witness(g, classes[0].q, 3, profile=prof)
        assert verify_proof_lemmas(g, wit, profile=prof).all_ok
        refused = [
            lambda: search_mates(g, [3, 9], profile=other),
            lambda: enumerate_columns(g, 3, profile=other),
            lambda: extract_four_cong_witness(g, classes[0].q, 3, profile=other),
            lambda: verify_proof_lemmas(g, wit, profile=other),
            lambda: check_classes(g, other, classes),
            lambda: check_classes(g, other, []),
        ]
        for call in refused:
            with pytest.raises(ValueError, match="another graph"):
                call()
