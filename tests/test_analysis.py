"""The shared per-graph pipeline: one record format and one class check."""

import dataclasses
import inspect
import io
import json

from walklevel import analysis, cli
from walklevel.analysis import analyze, check_classes
from walklevel.bounds import (
    LevelBoundReport,
    PrimeBound,
    extract_four_cong_witness,
    verify_proof_lemmas,
)
from walklevel.fixtures import load_worked_example
from walklevel.graphs import emit_graph6, parse_graph6, walk_profile
from walklevel.matesearch import enumerate_columns, search_mates
from walklevel.sweep import SweepConfig, sweep_one


def lowered_at_3(prof):
    """The profile with v_3(det W) lowered from 4 to 3, so the bound is 3^1."""
    primes = dict(prof.primes)
    primes[3] = (3, primes[3][1])
    return dataclasses.replace(prof, primes=primes)


class TestAnalyze:
    def test_fixture_record(self):
        g = load_worked_example().graph
        prof = walk_profile(g)
        rec = analyze(prof)
        assert rec["profile"] == prof.as_dict()
        assert rec["graph6"] == emit_graph6(g)
        assert rec["bounds"]["overall_divisor"] == 9
        assert set(rec) == {"graph6", "profile", "bounds", "dgs", "family", "mate_bounds"}

    def test_uncontrollable_has_profile_only(self):
        rec = analyze(walk_profile(parse_graph6("A_")))
        assert not rec["profile"]["controllable"]
        assert set(rec) == {"graph6", "profile"}

    def test_sweep_records_carry_the_same_analysis(self):
        config = SweepConfig(n_min=6, n_max=9, seed=5, mates=False)
        for index in range(8):
            rec = sweep_one(config, index)
            want = analyze(walk_profile(parse_graph6(rec["graph6"])))
            assert {k: rec[k] for k in want} == want


class TestCheckClasses:
    def test_fixture_has_no_violation(self):
        prof = walk_profile(load_worked_example().graph)
        checked = check_classes(prof, search_mates(prof, [1, 3, 9]))
        assert checked["bound_check"] == {"violations": []}
        assert [c["level"] for c in checked["classes"]] == [1, 3, 9]
        assert [w["tau"] for w in checked["witnesses"]] == [1, 2]
        assert all(chk["all_ok"] for chk in checked["lemma_checks"])

    def test_lowered_valuation_flags_level_nine(self):
        prof = lowered_at_3(walk_profile(load_worked_example().graph))
        checked = check_classes(prof, search_mates(prof, [3, 9]))
        assert checked["bound_check"]["violations"] == [{"prime": 3, "level": 9, "tau": 2}]

    def test_bound_check_reads_the_bound_table(self, monkeypatch):
        # a table capping 3 at exponent 0 makes the level-3 class a violation;
        # one leaving 3 unbounded checks nothing
        prof = walk_profile(load_worked_example().graph)
        classes = search_mates(prof, [3])
        for exponent, violations in ((0, [{"prime": 3, "level": 3, "tau": 1}]), (None, [])):
            table = LevelBoundReport((PrimeBound(3, exponent, "test"),), None)
            monkeypatch.setattr(analysis, "level_bounds", lambda _, table=table: table)
            assert check_classes(prof, classes)["bound_check"]["violations"] == violations

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


class TestOneProfile:
    """Every stage after walk_profile takes the profile alone."""

    STAGES = (analyze, check_classes, search_mates, enumerate_columns,
              extract_four_cong_witness, verify_proof_lemmas)

    def test_every_stage_reads_it(self):
        prof = walk_profile(load_worked_example().graph)
        classes = search_mates(prof, [3, 9])
        assert [c.level for c in classes] == [3, 9]
        assert len(enumerate_columns(prof, 3)) == 16
        assert len(check_classes(prof, classes)["witnesses"]) == 2
        wit = extract_four_cong_witness(prof, classes[0].q, 3)
        assert verify_proof_lemmas(prof, wit).all_ok

    def test_no_stage_takes_a_graph(self):
        for stage in self.STAGES:
            params = list(inspect.signature(stage).parameters.values())
            assert params[0].annotation == "WalkProfile", stage
            assert not any("Graph" in str(p.annotation) for p in params), stage
