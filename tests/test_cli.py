"""Command-line surface: formats, exit codes, JSON schema, determinism."""

import io
import json

import networkx as nx
import pytest

from walklevel import graphs
from walklevel.cli import main, read_graphs
from walklevel.fixtures import load_worked_example
from walklevel.graphs import emit_graph6, parse_graph6

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
        graphs = read_graphs(text, "adj")
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

    def test_malformed_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("A_\n!!!notgraph6!!!\n")
        assert main(["analyze", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

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

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mates", "--help"])
        assert exc.value.code == 0
        assert "--level-cap" in capsys.readouterr().out


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
