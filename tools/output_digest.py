#!/usr/bin/env python3
"""sha256 digests of walklevel's canonical outputs, to show two versions agree byte for byte.

Usage:
    python3 tools/output_digest.py [--src DIR]

Imports walklevel from DIR (default: the ``src`` next to this script) and
prints one line per output group, ``<group> <items> <sha256>``:

  sweep_small     report_json(run_sweep(...)), seed 42, n 6-12, 500 graphs, mates
  sweep_factor    report_json(run_sweep(...)), seed 42, n 14-16, 24 graphs, no mates
  sweep_edge_prob report_json(run_sweep(...)) at edge probabilities 1/3 and 2/7,
                  seed 42, n 5-10, 30 graphs each, mates; every n = 5 slot is
                  exhausted (no graph on 5 vertices is controllable)
  analyze_fixture walklevel analyze --json on the bundled fixture
  analyze_pool    walklevel analyze --json on each line of perfbench/mates_pool.txt
  mates_fixture   walklevel mates --json on the fixture, automatic levels
  mates_pool      walklevel mates --json on each pool line at its listed levels
  profile_n24_40  walk_profile(g, primes=(2, 3, 5, 7)).as_dict() as sorted JSON on
                  the first controllable G(n, 1/2) draw of derive_stream(42, 1000 + i,
                  attempt), i = 0..3, at n = 24, 32 and 40
  columns_l1_12   enumerate_columns on the fixture and the first 20 pool graphs at
                  levels 1-12, a SearchCapExceeded message standing for its list
  columns_deep    enumerate_columns on M{~`UOFxUIeuiq`G_ at levels 8, 12 and 40
                  and on KfAGea\\UCmvi at levels 4, 6 and 8, where the kernel
                  mod a power of 2 has up to 524,288 residues
  snf_local       walklevel snf --prime p --power k --json on the three fixture
                  matrices, (p, k) in (3,1), (3,2), (3,3), (5,2), (2,3); warning
                  messages go in by text, without the file and line they name
  snf_helpers     solvable_mod_pk, kernel_shape and extend_basis on random.Random(7)
                  matrices with n <= 4 over p^k in 3, 9, 27, 25, 49; a raised
                  error's type and message stand for its output
  dn_answers      the answer of dn_test(m, p, k), without its witness, on
                  random.Random(7) matrices with n <= 4 columns and n to 4 rows,
                  over p^k in 3, 9, 27, 25, 49
  dn_witnesses    dn_test(m, p, k) in full, the answer and its witness, on the
                  inputs of dn_answers
  lemma_reports   verify_proof_lemmas(prof, wit).as_dict() on 300 random.Random(7)
                  witnesses over the fixture and the first 20 pool graphs: p in
                  3, 5, 7, tau <= 2, z0 and lambda0 drawn in [0, p^tau); how many
                  of the shifted matrices A - lambda0*I are singular goes to stderr
  factor_smith    factorize(n) as JSON in the order its keys were found (no
                  sort_keys) on numbers at the trial-division boundary (powers of
                  9973, 10007, their products) and on det W / 2^floor(n/2) of the
                  first controllable G(n, 1/2) draw of derive_stream(42, n,
                  attempt), n = 6..18; then invariant_factors(m) on 300
                  random.Random(7) square matrices with n <= 8, singular ones
                  included
  smith_random    det(m) and invariant_factors(m) on 400 random.Random(7) square
                  matrices with n 1-10, each row scaled by 1, 2, 4, 8, 3, 5, 7, 6
                  or 10, a tenth of them made singular by a repeated row; this is
                  where the Bareiss pass swaps columns and eliminates a block
                  modulo an odd part
  snf_random      snf_int(m)'s U, S and V on smith_random's 400 matrices and on 100
                  random.Random(8) non-square ones, 1-8 rows and columns, built
                  the same way; S is unique and U and V are not, so a change to
                  the elimination's moves shows here on many more matrices than
                  on the three fixtures of snf_local
  draws           random_graph(SplitMix64(state), n, num, den): its rows and the
                  end state, on random.Random(7) states at n 0-40 for 1/2, 1/3,
                  3/8 and 2/7; on den 1, 2, 8 and 2^64 with num 0, 1, den - 1,
                  den and den + 1; on other denominators, among them 2^62/(3*2^62)
                  and 5/(2^63 + 1), which reject a quarter and a half of all
                  outputs; and with the rejected output 2^64 - 1 planted at the
                  first, a middle and the last pair (den 3 and 7), the state
                  found by tests/oracles.py's unmix64 from this checkout
  inputs          walklevel analyze on inputs a valid-input reader must take or
                  name exactly: --json on the 63-vertex path as an adjacency
                  file, a two-graph adjacency file whose second matrix has a
                  short row on line 7, and --json on the long-form graph6 line
                  of the edgeless 63-vertex graph
  cli_errors      walklevel's exit-1 paths: sweep --edge-prob x, 1/2/3, "", 1/,
                  /2, a/b, 1/0 and 3/2; mates --levels 3, and mates --level-cap
                  0 on the fixture; snf --power 0 on the level-3 matrix; mates
                  on the uncontrollable graph A_ and on an adjacency file with
                  a short row
  cli_surface     walklevel's argv handling: each command on the fixture (analyze,
                  mates --json, snf --prime 3 on the level-3 matrix, a 4-graph
                  sweep --json), [], --help, bogus, mates --bogus, mates - extra1,
                  sweep --count x, --bogus mates, MATES, mat, and each command's
                  --help, with COLUMNS=80; argparse's SystemExit code stands for
                  the exit code
  cli_again       cli_surface's argv list replayed in the same process, after
                  every other group: main builds its parser once per process,
                  so a repeated call must give cli_surface's digest

A group's digest covers each item's exit code, stdout and stderr in order.
Run it on two checkouts (say, ``--src`` pointing at a ``git archive`` copy
of the parent commit) and compare the lines. When a change alters a call
shape this tool uses, compare each checkout's own tool instead: the
parent's tool run in a ``git archive`` copy of the parent, and this tool on
the change. The pool file is always read
from this script's checkout. Standard library only; it takes a few seconds,
more than half of them in columns_deep. On a checkout whose enumerate_columns
walks each residue's box coordinate by coordinate, columns_deep takes about
seven times as long.
The path of the imported package goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL = ROOT / "perfbench" / "mates_pool.txt"


def run_cli(main, argv: list[str], stdin: str) -> str:
    """One walklevel.cli.main call as text: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}\n"


def pool_lines() -> list[tuple[str, str]]:
    """(graph6, comma-separated levels) for each line of the mates pool."""
    out = []
    for line in POOL.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            _, g6, levels = line.split()
            out.append((g6, levels))
    return out


def large_profiles() -> list[str]:
    """walk_profile with the primes given on controllable draws at n = 24, 32, 40."""
    from walklevel.graphs import walk_matrix, walk_profile
    from walklevel.intmat import det
    from walklevel.sweep import derive_stream, random_graph

    out = []
    for n in (24, 32, 40):
        for i in range(4):
            for attempt in range(1000):
                g = random_graph(derive_stream(42, 1000 + i, attempt), n, 1, 2)
                if det(walk_matrix(g)):
                    break
            else:
                raise RuntimeError(f"no controllable draw at n = {n}, i = {i}")
            prof = walk_profile(g, primes=(2, 3, 5, 7))
            out.append(json.dumps(prof.as_dict(), sort_keys=True) + "\n")
    return out


def column_lists(fixture: str, pool: list[tuple[str, str]]) -> list[str]:
    """enumerate_columns at levels 1-12 on the fixture and 20 pool graphs."""
    from walklevel.cli import read_graphs
    from walklevel.errors import SearchCapExceeded
    from walklevel.graphs import parse_graph6, walk_profile
    from walklevel.matesearch import enumerate_columns

    graphs = read_graphs(fixture) + [parse_graph6(g6) for g6, _ in pool[:20]]
    out = []
    for g in graphs:
        prof = walk_profile(g, ())
        for level in range(1, 13):
            try:
                item = enumerate_columns(prof, level)
            except SearchCapExceeded as exc:
                item = str(exc)
            out.append(json.dumps(item) + "\n")
    return out


def deep_columns() -> list[str]:
    """enumerate_columns at high powers of 2 on two graphs with large kernels."""
    from walklevel.graphs import parse_graph6, walk_profile
    from walklevel.matesearch import enumerate_columns

    out = []
    for g6, levels in (("M{~`UOFxUIeuiq`G_", (8, 12, 40)), ("KfAGea\\UCmvi", (4, 6, 8))):
        prof = walk_profile(parse_graph6(g6), ())
        out.extend(json.dumps(enumerate_columns(prof, level)) + "\n" for level in levels)
    return out


def local_forms(main, fixtures: Path) -> list[str]:
    """walklevel snf over Z/p^kZ on each fixture matrix."""
    out = []
    for name in ("g10_adjacency.txt", "g10_qhat_level3.txt", "g10_qhat_level9.txt"):
        text = (fixtures / name).read_text()
        for p, k in ((3, 1), (3, 2), (3, 3), (5, 2), (2, 3)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                item = run_cli(main, ["snf", "-", "--prime", str(p), "--power", str(k),
                                      "--json"], text)
            out.append(item + "".join(f"{w.category.__name__}: {w.message}\n"
                                      for w in caught))
    return out


def local_helpers() -> list[str]:
    """solvable_mod_pk, kernel_shape and extend_basis on seeded small matrices."""
    from walklevel.intmat import IntMatrix, det
    from walklevel.snf import extend_basis, kernel_shape, solvable_mod_pk

    rng = random.Random(7)
    out = []

    def item(name, f, *args):
        try:
            val = f(*args)
        except (ArithmeticError, ValueError) as exc:
            val = f"{type(exc).__name__}: {exc}"
        out.append(json.dumps([name, val], default=vars) + "\n")

    for p, k in ((3, 1), (3, 2), (3, 3), (5, 2), (7, 2)):
        q = p ** k
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix([[rng.choice((0, p * rng.randrange(q), rng.randrange(q)))
                            for _ in range(nc)] for _ in range(nr)])
            if rng.random() < 0.5:
                b = m.mat_vec([rng.randrange(q) for _ in range(nc)])
            else:
                b = tuple(rng.randrange(q) for _ in range(nr))
            item("solvable_mod_pk", solvable_mod_pk, m, b, p, k)
            item("kernel_shape", kernel_shape, m, p, k)
        for _ in range(20):
            # r columns of a matrix invertible mod p span a free module of rank r
            n = rng.randint(1, 4)
            full = IntMatrix([[0] * n] * n)
            while det(full) % p == 0:
                full = IntMatrix([[rng.randrange(q) for _ in range(n)] for _ in range(n)])
            r = rng.randint(1, n)
            span = IntMatrix.from_columns(list(zip(*full.data))[:r])
            vectors = [tuple(x % q for x in span.mat_vec([rng.randrange(q) for _ in range(r)]))
                       for _ in range(rng.randint(0, r))]
            item("extend_basis", extend_basis, vectors, list(zip(*span.data)), p, k)
    return out


def unit_kernel_tests() -> list[tuple]:
    """(m, p, k, dn_test(m, p, k)) on seeded small tall matrices."""
    from walklevel.intmat import IntMatrix
    from walklevel.snf import dn_test

    rng = random.Random(7)
    out = []
    for p, k in ((3, 1), (3, 2), (3, 3), (5, 2), (7, 2)):
        q = p ** k
        for _ in range(40):
            nc = rng.randint(1, 4)
            nr = rng.randint(nc, 4)
            m = IntMatrix([[rng.choice((0, p * rng.randrange(q), rng.randrange(q)))
                            for _ in range(nc)] for _ in range(nr)])
            out.append((m, p, k, dn_test(m, p, k)))
    return out


def lemma_reports(fixture: str, pool: list[tuple[str, str]]) -> list[str]:
    """verify_proof_lemmas on seeded hand-built witnesses."""
    from walklevel.bounds import FourCongWitness, verify_proof_lemmas
    from walklevel.cli import read_graphs
    from walklevel.graphs import parse_graph6, walk_profile
    from walklevel.intmat import IntMatrix, det

    graphs = read_graphs(fixture) + [parse_graph6(g6) for g6, _ in pool[:20]]
    rng = random.Random(7)
    out = []
    singular = 0
    for _ in range(300):
        g = rng.choice(graphs)
        p, tau = rng.choice((3, 5, 7)), rng.randint(1, 2)
        q = p ** tau
        z0 = tuple(rng.randrange(q) for _ in range(g.n))
        lam = rng.randrange(q)
        singular += det(g.adjacency() - lam * IntMatrix.identity(g.n)) == 0
        wit = FourCongWitness(p, tau, z0, lam, (True,) * 4)
        out.append(json.dumps(verify_proof_lemmas(walk_profile(g, ()), wit).as_dict()) + "\n")
    print(f"lemma_reports: {singular} of {len(out)} shifted matrices are singular",
          file=sys.stderr)
    return out


def factor_smith() -> list[str]:
    """factorize with its key order, and invariant_factors on square matrices."""
    from walklevel.arith import factorize
    from walklevel.graphs import walk_matrix
    from walklevel.intmat import IntMatrix, det
    from walklevel.snf import invariant_factors
    from walklevel.sweep import derive_stream, random_graph

    numbers = [9973**k for k in range(1, 6)] + [
        10007, 10007**2, 9973 * 10007, 10007**2 * 9973, 10007**3, 9967**2 * 9973**3 * 10007,
        2**40 * 3**25 * 9973**2 * 10007, -(10001**2), -(10003 * 10007)]
    for n in range(6, 19):
        for attempt in range(1000):
            d = det(walk_matrix(random_graph(derive_stream(42, n, attempt), n, 1, 2)))
            if d:
                numbers.append(d >> n // 2)
                break
    out = [json.dumps([n, factorize(n)]) + "\n" for n in numbers]

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 8)
        pool = rng.choice(((0, 1, -1, 2), (0, 2, 4, 6, 3), tuple(range(-9, 10))))
        m = IntMatrix([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        out.append(json.dumps([m.data, invariant_factors(m)]) + "\n")
    return out


def scaled_rows(rng: random.Random, nr: int, nc: int) -> list[list[int]]:
    """nr x nc entries from one of three pools, each row scaled by 1-10."""
    pool = rng.choice(((0, 1, -1, 2), (0, 2, 4, 6, 3), tuple(range(-9, 10))))
    return [[rng.choice(pool) * scale for _ in range(nc)]
            for scale in rng.choices((1, 2, 4, 8, 3, 5, 7, 6, 10), k=nr)]


def smith_matrices() -> list:
    """smith_random's 400 seeded square matrices, a tenth with a repeated row."""
    from walklevel.intmat import IntMatrix

    rng = random.Random(7)
    out = []
    for _ in range(400):
        n = rng.randint(1, 10)
        rows = scaled_rows(rng, n, n)
        if n > 1 and rng.random() < 0.1:
            rows[-1] = rows[0]
        out.append(IntMatrix(rows))
    return out


def smith_random() -> list[str]:
    """det and invariant_factors on seeded square matrices with scaled rows."""
    from walklevel.intmat import det
    from walklevel.snf import invariant_factors

    return [json.dumps([m.data, det(m), invariant_factors(m)]) + "\n" for m in smith_matrices()]


def snf_random() -> list[str]:
    """snf_int's U, S and V on smith_random's matrices and 100 non-square ones."""
    from walklevel.intmat import IntMatrix
    from walklevel.snf import snf_int

    rng = random.Random(8)
    matrices = smith_matrices() + [IntMatrix(scaled_rows(rng, *rng.sample(range(1, 9), 2)))
                                   for _ in range(100)]
    out = []
    for m in matrices:
        res = snf_int(m)
        out.append(json.dumps([m.data, res.U.data, res.S.data, res.V.data]) + "\n")
    return out


def draws() -> list[str]:
    """random_graph's rows and end state on seeded states, across the kinds of denominator."""
    from walklevel.sweep import _GAMMA, SplitMix64, random_graph

    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import unmix64

    rng = random.Random(7)
    cases = [(rng.getrandbits(64), n, num, den)
             for num, den in ((1, 2), (1, 3), (3, 8), (2, 7)) for n in range(41)]
    for den in (1, 2, 8, 1 << 64):
        cases += [(rng.getrandbits(64), n, num, den)
                  for num in sorted({0, 1, den - 1, den, den + 1}) for n in (0, 1, 2, 7, 12, 23)]
    for num, den in ((1, 3), (4, 7), (1 << 62, 3 << 62), (5, (1 << 63) + 1), (1, (1 << 64) - 1),
                     (0, 3), (3, 3), (9, 7)):
        cases += [(rng.getrandbits(64), n, num, den) for n in (0, 1, 2, 5, 12, 20, 33)]
    # 2^64 - 1 is rejected for den 3 and 7: plant it at the first, a middle and the last pair
    for den in (3, 7):
        for n in (2, 3, 9, 16):
            pairs = n * (n - 1) // 2
            cases += [((unmix64((1 << 64) - 1) - (k - 1) * _GAMMA) % (1 << 64), n, 1, den)
                      for k in sorted({1, (pairs + 1) // 2, pairs})]
    out = []
    for state, n, num, den in cases:
        stream = SplitMix64(state)
        adj = random_graph(stream, n, num, den).adj
        out.append(json.dumps([state, n, num, den, adj, stream.state]) + "\n")
    return out


def input_runs(main) -> list[str]:
    """walklevel analyze on a 63-vertex path, a faulty row and long-form graph6."""
    n = 63
    path = f"{n}\n" + "".join(
        " ".join("1" if abs(i - j) == 1 else "0" for j in range(n)) + "\n" for i in range(n))
    two = "3\n0 1 0\n1 0 1\n0 1 0\n# second graph\n3\n0 1\n1 0 1\n1 1 0\n"
    # '~' then 3 size bytes for n = 63, then 1953 zero bits in 326 bytes
    edgeless = "~??~" + "?" * 326 + "\n"
    return [run_cli(main, ["analyze", "-", "--json"], path),
            run_cli(main, ["analyze", "-"], two),
            run_cli(main, ["analyze", "-", "--json"], edgeless)]


def cli_errors(main, fixtures: Path) -> list[str]:
    """walklevel.cli.main on bad option values and inputs it must refuse."""
    fixture = (fixtures / "g10_adjacency.txt").read_text()
    cases = [(["sweep", "--count", "1", "--edge-prob", prob], "")
             for prob in ("x", "1/2/3", "", "1/", "/2", "a/b", "1/0", "3/2")] + [
        (["mates", "-", "--levels", "3,"], fixture),
        (["mates", "-", "--level-cap", "0"], fixture),
        (["snf", "-", "--power", "0"], (fixtures / "g10_qhat_level3.txt").read_text()),
        (["mates", "-"], "A_\n"),
        (["mates", "-"], "3\n0 1 0\n1 0\n0 1 0\n"),
    ]
    return [run_cli(main, argv, stdin) for argv, stdin in cases]


def cli_surface(main, fixtures: Path) -> list[str]:
    """walklevel.cli.main on commands, usage errors and help requests."""

    def guarded(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return f"SystemExit {exc.code}"

    fixture = (fixtures / "g10_adjacency.txt").read_text()
    cases = [
        (["analyze", "-"], fixture),
        (["mates", "-", "--json"], fixture),
        (["snf", "-", "--prime", "3"], (fixtures / "g10_qhat_level3.txt").read_text()),
        (["sweep", "--seed", "3", "--count", "4", "--json"], ""),
    ] + [(argv, fixture) for argv in (
        [], ["--help"], ["bogus"], ["mates", "--bogus"], ["mates", "-", "extra1"],
        ["sweep", "--count", "x"], ["--bogus", "mates"], ["MATES"], ["mat"],
        ["analyze", "--help"], ["mates", "--help"], ["snf", "--help"], ["sweep", "--help"])]
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal
    try:
        return [run_cli(guarded, argv, stdin) for argv, stdin in cases]
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def groups(src: Path) -> dict[str, list[str]]:
    sys.path.insert(0, str(src))
    import walklevel
    from walklevel.cli import main
    from walklevel.sweep import SweepConfig, report_json, run_sweep

    print(f"walklevel from {Path(walklevel.__file__).parent}", file=sys.stderr)
    fixtures = src / "walklevel" / "fixtures"
    fixture = (fixtures / "g10_adjacency.txt").read_text()
    pool = pool_lines()
    unit_kernel = unit_kernel_tests()
    small = SweepConfig(n_min=6, n_max=12, graph_count=500, seed=42)
    factor = SweepConfig(n_min=14, n_max=16, graph_count=24, seed=42, mates=False)
    sparse = [SweepConfig(n_min=5, n_max=10, graph_count=30, seed=42, edge_prob_num=num,
                          edge_prob_den=den) for num, den in ((1, 3), (2, 7))]
    return {
        "sweep_small": [report_json(run_sweep(small))],
        "sweep_factor": [report_json(run_sweep(factor))],
        "sweep_edge_prob": [report_json(run_sweep(config)) for config in sparse],
        "analyze_fixture": [run_cli(main, ["analyze", "-", "--json"], fixture)],
        "analyze_pool": [run_cli(main, ["analyze", "-", "--json"], g6 + "\n")
                         for g6, _ in pool],
        "mates_fixture": [run_cli(main, ["mates", "-", "--json"], fixture)],
        "mates_pool": [run_cli(main, ["mates", "-", "--levels", levels, "--json"], g6 + "\n")
                       for g6, levels in pool],
        "profile_n24_40": large_profiles(),
        "columns_l1_12": column_lists(fixture, pool),
        "columns_deep": deep_columns(),
        "snf_local": local_forms(main, fixtures),
        "snf_helpers": local_helpers(),
        "dn_answers": [json.dumps([m.data, p, k, ok]) + "\n"
                       for m, p, k, (ok, _) in unit_kernel],
        "dn_witnesses": [json.dumps([m.data, p, k, answer]) + "\n"
                         for m, p, k, answer in unit_kernel],
        "lemma_reports": lemma_reports(fixture, pool),
        "factor_smith": factor_smith(),
        "smith_random": smith_random(),
        "snf_random": snf_random(),
        "draws": draws(),
        "inputs": input_runs(main),
        "cli_errors": cli_errors(main, fixtures),
        "cli_surface": cli_surface(main, fixtures),
        "cli_again": cli_surface(main, fixtures),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the walklevel package (default: ./src)")
    args = parser.parse_args()
    for name, items in groups(args.src.resolve()).items():
        digest = hashlib.sha256("".join(items).encode()).hexdigest()
        print(f"{name} {len(items)} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
