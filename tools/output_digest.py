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
  snf_local       walklevel snf --prime p --power k --json on the three fixture
                  matrices, (p, k) in (3,1), (3,2), (3,3), (5,2), (2,3); warning
                  messages go in by text, without the file and line they name
  snf_helpers     solvable_mod_pk, kernel_shape and extend_basis on random.Random(7)
                  matrices with n <= 4 over p^k in 3, 9, 27, 25, 49; a raised
                  error's type and message stand for its output
  dn_answers      the answer of dn_test(m, p, k), without its witness, on
                  random.Random(7) matrices with n <= 4 columns and n to 4 rows,
                  over p^k in 3, 9, 27, 25, 49
  lemma_reports   verify_proof_lemmas(g, wit).as_dict() on 300 random.Random(7)
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

A group's digest covers each item's exit code, stdout and stderr in order.
Run it on two checkouts (say, ``--src`` pointing at a ``git archive`` copy
of the parent commit) and compare the lines. The pool file is always read
from this script's checkout. Standard library only; it takes about ten seconds.
The path of the imported package goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
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
    from walklevel.graphs import parse_graph6
    from walklevel.matesearch import enumerate_columns

    graphs = read_graphs(fixture) + [parse_graph6(g6) for g6, _ in pool[:20]]
    out = []
    for g in graphs:
        for level in range(1, 13):
            try:
                item = enumerate_columns(g, level)
            except SearchCapExceeded as exc:
                item = str(exc)
            out.append(json.dumps(item) + "\n")
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
            full = IntMatrix.zeros(n, n)
            while det(full) % p == 0:
                full = IntMatrix([[rng.randrange(q) for _ in range(n)] for _ in range(n)])
            r = rng.randint(1, n)
            span = IntMatrix.from_columns(full.columns()[:r])
            vectors = [tuple(x % q for x in span.mat_vec([rng.randrange(q) for _ in range(r)]))
                       for _ in range(rng.randint(0, r))]
            item("extend_basis", extend_basis, vectors, span.columns(), p, k)
    return out


def unit_kernel_answers() -> list[str]:
    """dn_test's yes or no on seeded small tall matrices."""
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
            out.append(json.dumps([m.data, p, k, dn_test(m, p, k)[0]]) + "\n")
    return out


def lemma_reports(fixture: str, pool: list[tuple[str, str]]) -> list[str]:
    """verify_proof_lemmas on seeded hand-built witnesses."""
    from walklevel.bounds import FourCongWitness, verify_proof_lemmas
    from walklevel.cli import read_graphs
    from walklevel.graphs import parse_graph6
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
        out.append(json.dumps(verify_proof_lemmas(g, wit).as_dict()) + "\n")
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


def groups(src: Path) -> dict[str, list[str]]:
    sys.path.insert(0, str(src))
    import walklevel
    from walklevel.cli import main
    from walklevel.sweep import SweepConfig, report_json, run_sweep

    print(f"walklevel from {Path(walklevel.__file__).parent}", file=sys.stderr)
    fixtures = src / "walklevel" / "fixtures"
    fixture = (fixtures / "g10_adjacency.txt").read_text()
    pool = pool_lines()
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
        "snf_local": local_forms(main, fixtures),
        "snf_helpers": local_helpers(),
        "dn_answers": unit_kernel_answers(),
        "lemma_reports": lemma_reports(fixture, pool),
        "factor_smith": factor_smith(),
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
