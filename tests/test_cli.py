"""Command-line surface: formats, exit codes, JSON schema, determinism."""

import argparse
import dataclasses
import io
import json

import networkx as nx
import pytest

from walklevel import cli, graphs
from walklevel.cli import main, read_graphs
from walklevel.errors import ParseError
from walklevel.fixtures import load_worked_example, parse_int_matrix_text
from walklevel.graphs import emit_graph6, parse_graph6
from walklevel.intmat import IntMatrix
from walklevel.sweep import SweepConfig, run_sweep

ADJ_TEXT = """\
10
0 1 0 1 1 0 1 0 0 1
1 0 0 0 1 0 1 1 0 1
0 0 0 0 1 1 0 1 0 1
1 0 0 0 0 1 1 1 0 0
1 1 1 0 0 1 0 0 1 0
0 0 1 1 1 0 1 1 1 1
1 1 0 1 0 1 0 0 1 1
0 1 1 1 0 1 0 0 0 1
0 0 0 0 1 1 1 0 0 0
1 1 1 0 0 1 1 1 0 0
"""


@pytest.fixture
def adj_file(tmp_path):
    path = tmp_path / "g10.adj"
    path.write_text(ADJ_TEXT)
    return str(path)


class TestReaders:
    def test_adjacency_auto(self):
        graphs = read_graphs(ADJ_TEXT)
        assert len(graphs) == 1
        assert graphs[0] == load_worked_example().graph

    def test_graph6_auto(self):
        g = load_worked_example().graph
        graphs = read_graphs(emit_graph6(g) + "\n")
        assert graphs == [g]

    def test_multiple_graph6_lines(self):
        text = "A_\nA?\n"
        assert len(read_graphs(text)) == 2

    def test_multiple_adjacency_blocks(self):
        text = "2\n0 1\n1 0\n3\n0 1 0\n1 0 1\n0 1 0\n"
        graphs = read_graphs(text)
        assert [g.n for g in graphs] == [2, 3]
        assert graphs[1].edge_count == 2

    def test_empty(self):
        assert read_graphs("") == []


class TestExitCodes:
    def test_analyze_ok(self, adj_file, capsys):
        assert main(["analyze", adj_file]) == 0
        out = capsys.readouterr().out
        assert "1539" in out and "divides: 9" in out

    def test_empty_input_ok(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert main(["analyze", str(path)]) == 0
        assert "0 graph(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["?\n", "0\n"])
    def test_zero_vertex_graph_names_its_line(self, text, monkeypatch, capsys):
        # graph6 "?" and the adjacency header 0 both give the graph on 0 vertices
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["analyze", "-"]) == 1
        assert capsys.readouterr().err == (
            "input error: line 1: the graph on 0 vertices has no walk matrix\n")

    def test_malformed_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("A_\n!!!notgraph6!!!\n")
        assert main(["analyze", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_adjacency_error_names_the_file_line(self, tmp_path, capsys):
        # the second matrix starts on line 6 and its short row is line 7
        path = tmp_path / "two.adj"
        path.write_text("3\n0 1 0\n1 0 1\n0 1 0\n# second graph\n3\n0 1\n1 0 1\n1 1 0\n")
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == "input error: line 7: expected 3 entries, found 2\n"

    def test_graph_errors_name_the_header_line(self, tmp_path, capsys):
        path = tmp_path / "two.adj"
        path.write_text("3\n0 1 0\n1 0 1\n0 1 0\n\n3\n1 1 0\n1 0 1\n0 1 0\n")
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == "input error: line 6: diagonal must be zero\n"
        path.write_text("3\n0 1 0\n1 0 1\n0 1 0\n\n3\n0 1 0\n1 0 1\n")
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == "input error: line 6: expected 3 rows, found 2\n"

    def test_sixty_three_vertex_path(self, tmp_path, capsys):
        # graph6 needs its long size form from n = 63 on
        n = 63
        rows = [" ".join("1" if abs(i - j) == 1 else "0" for j in range(n)) for i in range(n)]
        path = tmp_path / "path63.adj"
        path.write_text(f"{n}\n" + "\n".join(rows) + "\n")
        assert main(["analyze", str(path), "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)["graphs"][0]
        assert rec["graph6"].startswith("~??~")
        assert rec["profile"]["n"] == n and not rec["profile"]["controllable"]
        g6 = tmp_path / "path63.g6"
        g6.write_text(rec["graph6"] + "\n")
        assert main(["analyze", str(g6), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["graphs"][0] == rec

    def test_mates_uncontrollable(self, tmp_path, capsys):
        path = tmp_path / "k2.g6"
        path.write_text("A_\n")
        assert main(["mates", str(path)]) == 1
        assert "controllable" in capsys.readouterr().err

    def test_snf_oracle_cap(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        rows = ["7"] + ["1 0 0 0 0 0 0"] * 7
        path.write_text("\n".join(rows) + "\n")
        assert main(["snf", str(path), "--oracle-check"]) == 2
        assert "resource cap" in capsys.readouterr().err


class TestUsageErrors:
    """argparse exits 2 on usage errors; here 2 means a resource cap."""

    def test_unknown_option_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mates", "--bogus"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_removed_backend_option_exits_1(self, adj_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mates", adj_file, "--backend", "clique"])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_analyze_prime_option_exits_1(self, adj_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", adj_file, "--prime", "3"])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_int_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--count", "abc"])
        assert exc.value.code == 1
        assert "invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--count", "-1"], "graph count must be at least 0, got -1"),
        (["sweep", "--workers", "0"], "workers must be at least 1, got 0"),
        (["sweep", "--workers", "-2"], "workers must be at least 1, got -2"),
        (["sweep", "--level-cap", "-1"], "level cap must be at least 1, got -1"),
        (["mates", "-", "--level-cap", "-5"], "level cap must be at least 1, got -5"),
        (["mates", "-", "--level-cap", "0", "--levels", "3"],
         "level cap must be at least 1, got 0"),
        (["snf", "-", "--prime", "0"], "0 is not prime"),
        (["snf", "-", "--power", "-3"], "power must be at least 1, got -3"),
        (["snf", "-", "--power", "0"], "power must be at least 1, got 0"),
        (["snf", "-", "--prime", "3", "--power", "0"], "power must be at least 1, got 0"),
        (["sweep", "--count", "1", "--n-min", "6", "--n-max", "6", "--no-mates",
          "--edge-prob", "1/36893488147419103233"],
         "edge probability denominator must be at most 2^64, got 36893488147419103233"),
    ] + [
        (["sweep", "--count", "1", "--edge-prob", prob],
         f"--edge-prob takes a/b with integers a and b, got {prob!r}")
        for prob in ("x", "1/2/3", "", "1/", "/2", "a/b")
    ] + [
        (["sweep", "--count", "1", "--edge-prob", prob],
         f"edge probability must be a rational in [0, 1], got {prob}")
        for prob in ("1/0", "3/2")
    ] + [
        (["sweep", "--count", "1", "--n-min", "7", "--n-max", "3"],
         "bad vertex range: n_min 7 > n_max 3"),
        (["sweep", "--count", "1", "--n-min", "0"],
         "bad vertex range: n_min must be at least 1, got 0"),
    ])
    def test_bad_value_exits_1(self, argv, message, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(ADJ_TEXT))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("levels", ["", "3,", "3,x9"])
    def test_bad_levels_name_the_option(self, levels, adj_file, capsys):
        assert main(["mates", adj_file, "--levels", levels]) == 1
        bad = levels.rpartition(",")[2]
        assert capsys.readouterr().err == (
            "input error: --levels takes 'auto' or comma-separated integers, "
            f"got {bad!r} in {levels!r}\n")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mates", "--help"])
        assert exc.value.code == 0
        assert "--level-cap" in capsys.readouterr().out


def run_main(argv, stdin, monkeypatch, capsys):
    """(exit code, stdout, stderr) of one main call; SystemExit gives ("exit", code)."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MATRIX_TEXT = "3\n2 4 4\n-6 6 12\n10 -4 -16\n"


class TestInvariantExits:
    """A failed check: the full report in the mode asked for, one stderr line, exit 3."""

    @pytest.mark.parametrize("bound, message", [
        (False, "a verified conclusion failed"),
        (True, "level bound failed: [{'prime': 3, 'level': 9, 'tau': 2}]; "
               "a verified conclusion failed"),
    ])
    def test_mates_lemma_failure(self, bound, message, monkeypatch, capsys):
        argv = ["mates", "-", "--levels", "3,9"]
        text = run_main(argv, ADJ_TEXT, monkeypatch, capsys)[1]
        want = json.loads(run_main(argv + ["--json"], ADJ_TEXT, monkeypatch, capsys)[1])
        violations = [{"prime": 3, "level": 9, "tau": 2}] if bound else []
        want["bound_check"]["violations"] = violations
        want["lemma_checks"][0]["all_ok"] = False
        real = cli.check_classes

        def failing(prof, classes):
            checked = real(prof, classes)
            checked["bound_check"]["violations"] = violations
            checked["lemma_checks"][0]["all_ok"] = False
            return checked

        monkeypatch.setattr(cli, "check_classes", failing)
        code, out, err = run_main(argv, ADJ_TEXT, monkeypatch, capsys)
        assert (code, err) == (3, f"invariant violation: {message}\n")
        assert out == text.replace("all lemma checks pass", "all lemma checks FAIL")
        code, out, err = run_main(argv + ["--json"], ADJ_TEXT, monkeypatch, capsys)
        assert (code, err) == (3, f"invariant violation: {message}\n")
        assert json.loads(out) == want

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_snf_oracle_disagreement(self, json_mode, monkeypatch, capsys):
        argv = ["snf", "-", "--oracle-check", "--prime", "3"] + ["--json"] * json_mode
        clean = run_main(argv, MATRIX_TEXT, monkeypatch, capsys)
        real = cli._minor_gcd_products
        monkeypatch.setattr(cli, "_minor_gcd_products",
                            lambda m, upto: real(m, upto)[:-1] + [real(m, upto)[-1] + 1])
        code, out, err = run_main(argv, MATRIX_TEXT, monkeypatch, capsys)
        assert (code, err) == (3, "invariant violation: minor-gcd oracle disagrees\n")
        if json_mode:
            want = json.loads(clean[1])
            want["oracle_check"]["minor_gcds"][-1] += 1
            want["oracle_check"]["agrees"][-1] = False
            assert json.loads(out) == want
        else:
            assert out == clean[1].replace("agrees: [True, True, True]",
                                           "agrees: [True, True, False]")

    @pytest.mark.parametrize("kind, code", [
        ("bound_violations", 3), ("lemma_failures", 3), ("mate_bound_violations", 3),
        ("conjecture_violations", 0),  # reported, not a proven statement
    ])
    @pytest.mark.parametrize("mode", [[], ["--json"], ["--out"], ["--out", "--json"]])
    def test_sweep_aggregate(self, kind, code, mode, tmp_path, monkeypatch, capsys):
        path = tmp_path / "report.json"
        argv = ["sweep", "--seed", "3", "--count", "4"]
        for arg in mode:
            argv += [arg, str(path)] if arg == "--out" else [arg]
        clean = run_main(argv, "", monkeypatch, capsys)
        clean_file = path.read_text() if path.exists() else None
        real = cli.run_sweep

        def violated(config):
            report = real(config)
            report["aggregate"][kind].append({"index": 0})
            return report

        monkeypatch.setattr(cli, "run_sweep", violated)
        got = run_main(argv, "", monkeypatch, capsys)
        if code:
            assert got[::2] == (3, "invariant violation: a proven bound failed on an instance\n")
        else:
            assert got[::2] == (0, "")
        if "--out" in mode:
            report = json.loads(path.read_text())
            assert report["aggregate"][kind] == [{"index": 0}]
            report["aggregate"][kind] = []
            assert report == json.loads(clean_file)
        if mode == ["--json"]:
            report = json.loads(got[1])
            assert report["aggregate"][kind] == [{"index": 0}]
            report["aggregate"][kind] = []
            assert report == json.loads(clean[1])
        else:
            label = kind.replace("_", " ").replace("mate bound", "mate-bound")
            assert got[1] == clean[1].replace(f"{label}: 0", f"{label}: 1", 1)

    @pytest.mark.parametrize("argv, stdin", [
        (["analyze", "-"], ADJ_TEXT), (["analyze", "-", "--json"], ADJ_TEXT),
        (["mates", "-"], ADJ_TEXT), (["mates", "-", "--levels", "3", "--json"], ADJ_TEXT),
        (["snf", "-"], MATRIX_TEXT),
        (["snf", "-", "--oracle-check", "--prime", "3", "--power", "2"], MATRIX_TEXT),
        (["snf", "-", "--oracle-check", "--json"], MATRIX_TEXT),
        (["sweep", "--seed", "3", "--count", "4"], ""),
        (["sweep", "--seed", "3", "--count", "4", "--json"], ""),
    ])
    def test_success_exits_0_with_empty_stderr(self, argv, stdin, monkeypatch, capsys):
        code, out, err = run_main(argv, stdin, monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert out


class TestOneParser:
    """main parses every argv with one full parser, built on its first call."""

    def test_repeat_call_matches_a_fresh_parser(self, adj_file, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        matrix = tmp_path / "m.txt"
        matrix.write_text("3\n2 4 4\n-6 6 12\n10 -4 -16\n")
        cases = [
            ["analyze", adj_file], ["analyze", "-", "--json"], ["mates", adj_file, "--json"],
            ["mates", "-", "--levels", "3"], ["snf", str(matrix), "--prime", "3"],
            ["sweep", "--seed", "3", "--count", "4", "--json"],
            [], ["--help"], ["bogus"], ["mates", "--bogus"], ["mates", "-", "extra1"],
            ["sweep", "--count", "x"], ["--bogus", "mates"], ["MATES"], ["mat"],
            ["mates", "--", "-"], ["mates", "--he"], ["analyze", "--jso", adj_file],
            ["sweep", "--prime", "3", "--prime", "5", "--count", "2"],
        ] + [[command, "--help"] for command in ("analyze", "mates", "snf", "sweep")]
        with monkeypatch.context() as fresh_parsers:
            fresh_parsers.setattr(cli, "_main_parser", cli.build_parser)
            fresh = [run_main(argv, ADJ_TEXT, monkeypatch, capsys) for argv in cases]
        for _ in range(2):  # main's own parser, then the same parser again
            for argv, want in zip(cases, fresh):
                assert run_main(argv, ADJ_TEXT, monkeypatch, capsys) == want, argv
        assert [code for code, _, _ in fresh[:6]] == [0] * 6
        # a leftover argument is refused by the full parser: its usage lists every command
        assert fresh[cases.index(["mates", "--bogus"])] == (
            ("exit", 1), "", "usage: walklevel [-h] {analyze,mates,snf,sweep} ...\n"
                             "walklevel: error: unrecognized arguments: --bogus\n")

    def test_parser_built_once(self, adj_file, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._main_parser.cache_clear()  # as in a new process
        assert main(["mates", adj_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["levels_searched"] == [3, 9]
        # the full parser is one top-level parser and a subparser per command
        assert len(built) == 5
        assert main(["analyze", adj_file]) == 0
        assert main(["mates", adj_file, "--levels", "3"]) == 0
        assert main(["sweep", "--count", "2", "--no-mates"]) == 0
        with pytest.raises(SystemExit):
            main(["snf", "--help"])
        with pytest.raises(SystemExit):
            main(["bogus"])
        assert len(built) == 5
        capsys.readouterr()


class TestAnalyzeJson:
    def test_schema_and_values(self, adj_file, capsys):
        assert main(["analyze", adj_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        rec = payload["graphs"][0]
        assert rec["profile"]["normalized_det"] == 1539
        assert rec["profile"]["primes"]["3"] == {"valuation": 4, "rank": 9}
        assert rec["bounds"]["overall_divisor"] == 9


class TestMates:
    def test_worked_example_auto(self, adj_file, capsys):
        assert main(["mates", adj_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["levels_searched"] == [3, 9]
        nontrivial = [c for c in payload["classes"] if c["level"] > 1]
        assert len(nontrivial) == 2
        assert {c["level"] for c in nontrivial} == {3, 9}
        assert all(not c["isomorphic_to_input"] for c in nontrivial)
        assert len(payload["witnesses"]) == 2
        assert all(chk["all_ok"] for chk in payload["lemma_checks"])
        assert not payload["conjecture"]["any_violation"]
        assert payload["bound_check"] == {"violations": []}

    def test_builds_walk_matrix_once(self, adj_file, capsys, count_calls):
        # the profile's W feeds the search, the witnesses and the lemma checks
        walks = count_calls(graphs._walk_rows)
        assert main(["mates", adj_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["witnesses"]) == len(payload["lemma_checks"]) == 2
        assert len(walks) == 1

    def test_explicit_levels(self, adj_file, capsys):
        assert main(["mates", adj_file, "--levels", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["level"] for c in payload["classes"]] == [3]

    def test_dgs_graph_has_no_mates(self, tmp_path, capsys):
        # normalized det 1 (odd, square-free): certified, auto search empty
        path = tmp_path / "dgs.g6"
        path.write_text("FZqQg\n")
        assert main(["analyze", str(path), "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)["graphs"][0]
        assert rec["dgs"]["status"] == "DGS"
        assert main(["mates", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["levels_searched"] == []
        assert payload["classes"] == []

    def test_fourteen_vertices_from_stdin(self, monkeypatch, capsys):
        # n = 14 is past the isomorphism test's size limit, which the search
        # no longer calls; the level cap keeps the auto search short
        g6 = "M{~`UOFxUIeuiq`G_"
        monkeypatch.setattr("sys.stdin", io.StringIO(g6 + "\n"))
        assert main(["mates", "-", "--level-cap", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 3 in [c["level"] for c in payload["classes"]]

        def nx_graph(g):
            h = nx.empty_graph(g.n)
            h.add_edges_from((i, j) for i in range(g.n) for j in range(i) if g.adj[i][j])
            return h

        g = nx_graph(parse_graph6(g6))
        for cls in payload["classes"]:
            mate = nx_graph(parse_graph6(cls["mate_graph6"]))
            assert cls["isomorphic_to_input"] == nx.is_isomorphic(g, mate)

    def test_explicit_level_one_reports_permutation_class(self, adj_file, capsys):
        assert main(["mates", adj_file, "--levels", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["level"] for c in payload["classes"]] == [1]
        assert payload["classes"][0]["isomorphic_to_input"]


class TestSnf:
    def test_projection_fixture(self, tmp_path, capsys):
        path = tmp_path / "diag.txt"
        path.write_text("4\n2 0 0 0\n0 10 0 0\n0 0 30 0\n0 0 0 270\n")
        assert main(["snf", str(path), "--prime", "3", "--power", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant_factors"] == [2, 10, 30, 270]
        mod = payload["mod"]
        assert [mod["S"][i][i] for i in range(4)] == [1, 1, 3, 0]

    def test_oracle_check_agrees(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("3\n2 4 4\n-6 6 12\n10 -4 -16\n")
        assert main(["snf", str(path), "--oracle-check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload["oracle_check"]["agrees"])

    def test_rectangular_matrix(self, tmp_path, capsys):
        path = tmp_path / "rect.txt"
        path.write_text("2 3\n2 4 6\n4 8 12\n")
        with pytest.warns(UserWarning):  # p = 2 reductions are flagged
            assert main(["snf", str(path), "--prime", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant_factors"] == [2]

    @pytest.mark.parametrize("text", [
        "2 0\n",  # blank lines are skipped, so no text gives two empty rows
        "# comment\n0 3\n",  # would read as 0 x 0 and print V = [] for a 3 x 3 identity
    ])
    def test_header_with_one_zero_dimension_is_refused(self, text, monkeypatch, capsys):
        lines = text.splitlines()
        message = f"line {len(lines)}: header '{lines[-1]}' has one zero dimension"
        with pytest.raises(ParseError, match=f"^{message}"):
            parse_int_matrix_text(text)
        code, out, err = run_main(["snf", "-"], text, monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"input error: {message}")

    def test_empty_matrix_header(self):
        assert parse_int_matrix_text("0\n") == parse_int_matrix_text("0 0\n") == IntMatrix(())


class TestSweepCli:
    def test_seeded_sweep_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["sweep", "--seed", "11", "--count", "12", "--n-min", "6",
                "--n-max", "8"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()
        assert main(args + ["--json"]) == 0
        assert out1.read_text() == capsys.readouterr().out

    def test_summary_counts_slots_and_controllable_graphs(self, capsys):
        # at edge probability 1 every draw is a complete graph, never controllable
        assert main(["sweep", "--count", "3", "--edge-prob", "1/1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("swept 3 slots, 0 controllable graphs (seed 0, n in [6, 10])\n")
        assert "acceptance: {'6': {'accepted': 0, 'attempts': 1}" in out
        assert main(["sweep", "--count", "4", "--seed", "3", "--no-mates"]) == 0
        assert capsys.readouterr().out.startswith("swept 4 slots, 4 controllable graphs ")

    def test_bare_sweep_runs_the_default_config(self, monkeypatch, capsys):
        seen = []

        def recorded(config):
            seen.append(config)
            return run_sweep(dataclasses.replace(config, graph_count=0))

        monkeypatch.setattr(cli, "run_sweep", recorded)
        assert main(["sweep"]) == 0
        assert seen == [SweepConfig()]
        capsys.readouterr()

    def test_zero_count(self, capsys):
        assert main(["sweep", "--count", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate"]["graphs"] == 0

    def test_prime_that_is_not_an_odd_prime_exits_1(self, capsys):
        args = ["sweep", "--seed", "42", "--count", "40", "--n-min", "8", "--n-max", "10"]
        assert main(args + ["--prime", "3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["aggregate"]["searched"] == 3
        for prime in ("9", "4", "1", "2"):
            assert main(args + ["--prime", prime, "--json"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "input error: sweep primes must be odd primes" in captured.err

    def test_report_fields(self, capsys):
        assert main(["sweep", "--seed", "3", "--count", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        agg = payload["aggregate"]
        assert agg["bound_violations"] == []
        assert agg["lemma_failures"] == []
        assert agg["mate_bound_violations"] == []
        for rec in payload["graphs"]:
            assert "profile" in rec and "bounds" in rec
