"""Command-line front end: analyze, mates, snf, sweep.

Exit codes: 0 success, 1 input error, 2 resource cap exceeded, 3 internal
invariant violated (a bound or verified conclusion failed, which means a
bug). JSON output is versioned with "schema": 1 and serialized canonically
(sorted keys, compact separators) so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations
from math import gcd

from .analysis import analyze, check_classes
from .arith import divisors
from .bounds import level_bounds
from .errors import (
    ConjugationError,
    FactorizationError,
    InvariantError,
    ParseError,
    SearchCapExceeded,
)
from .fixtures import parse_int_matrix_text
from .graphs import Graph, emit_graph6, parse_graph6, walk_profile
from .intmat import IntMatrix, det
from .matesearch import search_mates
from .snf import snf_int, snf_mod_pk
from .sweep import SweepConfig, report_json, run_sweep

SCHEMA = 1


def _emit_json(payload: dict) -> None:
    sys.stdout.write(report_json({"schema": SCHEMA, **payload}))


# ---------------------------------------------------------------------------
# input readers
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def read_graphs(text: str, fmt: str = "auto") -> list[Graph]:
    """Graphs from graph6 lines or the adjacency text format.

    auto mode treats input whose first non-comment line is a bare integer
    as an adjacency file, anything else as one graph6 string per line.
    """
    stripped = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not stripped:
        return []
    if fmt == "auto":
        first = stripped[0][1]
        fmt = "adj" if first.isdigit() else "g6"
    if fmt == "adj":
        graphs = []
        pos = 0
        lines = stripped
        while pos < len(lines):
            lineno, header = lines[pos]
            try:
                n = int(header)
            except ValueError:
                raise ParseError(f"expected a vertex count, found {header!r}", line=lineno)
            block = lines[pos: pos + n + 1]
            body = "\n".join(ln for _, ln in block)
            try:
                m = parse_int_matrix_text(body)
                graphs.append(Graph(m.data))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            pos += n + 1
        return graphs
    graphs = []
    for lineno, line in stripped:
        try:
            graphs.append(parse_graph6(line))
        except ParseError as exc:
            raise ParseError(f"bad graph6: {exc}", line=lineno) from exc
    return graphs


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _print_analysis(rec: dict, out) -> None:
    prof = rec["profile"]
    out.write(f"graph {rec['graph6']}  n={prof['n']}\n")
    if not prof["controllable"]:
        out.write("  not controllable (det W = 0)\n")
        return
    out.write(f"  det W = {prof['det_w']}   normalized = {prof['normalized_det']}\n")
    out.write(f"  invariant factors of W: {prof['invariant_factors']}\n")
    for p, info in sorted(prof["primes"].items(), key=lambda kv: int(kv[0])):
        out.write(f"  p={p}: v_p(det W)={info['valuation']}  rank_p={info['rank']}\n")
    for entry in rec["bounds"]["per_prime"]:
        exp = entry["exponent"]
        shown = exp if exp is not None else "unbounded-by-these-rules"
        out.write(f"  level exponent at {entry['prime']}: {shown}  [{entry['rule']}]\n")
    overall = rec["bounds"]["overall_divisor"]
    out.write(f"  every admissible level divides: {overall if overall else 'unknown'}\n")
    out.write(f"  determined-by-spectrum: {rec['dgs']['status']} ({rec['dgs']['reason']})\n")
    fam = rec["family"]
    if fam["exponent"]:
        out.write(
            f"  determinant family: p^{fam['exponent']} * b with "
            f"p={fam['prime']}, b={fam['cofactor']}\n"
        )
    mb = rec["mate_bounds"]
    if mb["basic"] is not None:
        out.write(f"  mate-count bounds: improved {mb['improved']}, basic {mb['basic']}\n")
    out.write("\n")


def cmd_analyze(args) -> int:
    text = _read_text(args.path)
    graphs = read_graphs(text, args.format)
    records = [analyze(g)[1] for g in graphs]
    if args.json:
        _emit_json({"graphs": records})
    else:
        for rec in records:
            _print_analysis(rec, sys.stdout)
        sys.stdout.write(f"{len(records)} graph(s) analyzed\n")
    return 0


# ---------------------------------------------------------------------------
# mates
# ---------------------------------------------------------------------------


def _auto_levels(profile, bounds_rep, cap: int) -> tuple[list[int], list[str]]:
    notes = []
    if bounds_rep.overall_divisor is not None:
        base = bounds_rep.overall_divisor
    else:
        base = profile.d_n
        notes.append(
            "some prime is unbounded by the implemented rules; falling back "
            f"to divisors of the last invariant factor {base}"
        )
    levels = [d for d in divisors(profile.factor(base)) if d > 1]
    dropped = [d for d in levels if d > cap]
    if dropped:
        notes.append(f"levels over cap {cap} skipped: {dropped}")
    return [d for d in levels if d <= cap], notes


def cmd_mates(args) -> int:
    graphs = read_graphs(_read_text(args.path), args.format)
    if len(graphs) != 1:
        raise ParseError(f"expected exactly one graph, found {len(graphs)}")
    g = graphs[0]
    prof = walk_profile(g)
    if not prof.controllable:
        raise ParseError("graph is not controllable; the search is undefined")
    bounds_rep = level_bounds(prof)
    notes: list[str] = []
    if args.levels == "auto":
        levels, notes = _auto_levels(prof, bounds_rep, args.level_cap)
    else:
        levels = sorted({int(tok) for tok in args.levels.split(",")})
    checked = check_classes(g, prof, search_mates(g, levels, profile=prof))
    invariant_failed = not all(chk["all_ok"] for chk in checked["lemma_checks"])
    violations = checked["bound_check"]["violations"]

    payload = {
        "graph6": emit_graph6(g),
        "profile": prof.as_dict(),
        "bounds": bounds_rep.as_dict(),
        "levels_searched": levels,
        "notes": notes,
        **checked,
    }
    if args.json:
        _emit_json(payload)
    else:
        out = sys.stdout
        out.write(f"graph {payload['graph6']}: searched levels {levels}\n")
        for note in notes:
            out.write(f"  note: {note}\n")
        nontrivial = [r for r in checked["classes"] if r["level"] > 1]
        out.write(f"  {len(nontrivial)} non-permutation class(es)\n")
        for r in nontrivial:
            out.write(
                f"    level {r['level']}: mate {r['mate_graph6']} "
                f"(isomorphic to input: {r['isomorphic_to_input']})\n"
            )
        out.write(f"  witnesses checked: {len(checked['witnesses'])}, all lemma checks "
                  f"{'pass' if not invariant_failed else 'FAIL'}\n")
    if violations:
        sys.stderr.write(f"invariant violation: level bound failed: {violations}\n")
    if invariant_failed:
        sys.stderr.write("invariant violation: a verified conclusion failed\n")
    return 3 if violations or invariant_failed else 0


# ---------------------------------------------------------------------------
# snf
# ---------------------------------------------------------------------------


def _minor_gcd_products(m: IntMatrix, upto: int) -> list[int]:
    """gcd of all k x k minors for k = 1..upto (oracle for d_1...d_k products)."""
    out = []
    for k in range(1, upto + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, det(m.submatrix(rows, cols)))
        out.append(g)
    return out


def cmd_snf(args) -> int:
    m = parse_int_matrix_text(_read_text(args.path))
    res = snf_int(m)
    payload: dict = {
        "matrix": [list(r) for r in m.data],
        "ring": "Z",
        "U": [list(r) for r in res.U.data],
        "S": [list(r) for r in res.S.data],
        "V": [list(r) for r in res.V.data],
        "invariant_factors": list(res.invariant_factors),
    }
    if args.oracle_check:
        limit = min(m.rows, m.cols)
        if limit > 6:
            raise SearchCapExceeded("oracle check limited to matrices up to 6x6")
        gcds = _minor_gcd_products(m, limit)
        prod = 1
        agreements = []
        for k, g in enumerate(gcds, start=1):
            prod *= res.S[k - 1, k - 1]  # d_k within the rank, 0 beyond it
            agreements.append(prod == g)
        payload["oracle_check"] = {"minor_gcds": gcds, "agrees": agreements}
        if not all(agreements):
            sys.stderr.write("invariant violation: minor-gcd oracle disagrees\n")
            _emit_json(payload)
            return 3
    if args.prime:
        resm = snf_mod_pk(m, args.prime, args.power)
        payload["mod"] = {
            "p": args.prime,
            "k": args.power,
            "U": [list(r) for r in resm.U.data],
            "S": [list(r) for r in resm.S.data],
            "V": [list(r) for r in resm.V.data],
            "invariant_factors": list(resm.invariant_factors),
        }
    if args.json:
        _emit_json(payload)
    else:
        out = sys.stdout
        out.write(f"invariant factors over Z: {payload['invariant_factors']}\n")
        for name in ("U", "S", "V"):
            out.write(f"{name} =\n")
            for row in payload[name]:
                out.write("  " + " ".join(str(x) for x in row) + "\n")
        if "mod" in payload:
            mod = payload["mod"]
            out.write(
                f"invariant factors over Z/{mod['p']}^{mod['k']}Z: "
                f"{mod['invariant_factors']}\n"
            )
        if "oracle_check" in payload:
            out.write(f"minor-gcd oracle agrees: {payload['oracle_check']['agrees']}\n")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_ratio(text: str) -> tuple[int, int]:
    if "/" in text:
        a, b = text.split("/", 1)
        return int(a), int(b)
    return int(text), 1


def cmd_sweep(args) -> int:
    num, den = _parse_ratio(args.edge_prob)
    config = SweepConfig(
        n_min=args.n_min,
        n_max=args.n_max,
        graph_count=args.count,
        edge_prob_num=num,
        edge_prob_den=den,
        seed=args.seed,
        level_cap=args.level_cap,
        primes=tuple(args.prime) if args.prime else None,
        mates=not args.no_mates,
        workers=args.workers,
    )
    report = run_sweep(config)
    text = report_json(report)
    agg = report["aggregate"]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json and not args.out:
        sys.stdout.write(text)
    else:
        out = sys.stdout
        out.write(f"swept {agg['graphs']} controllable graphs "
                  f"(seed {config.seed}, n in [{config.n_min}, {config.n_max}])\n")
        out.write(f"  acceptance: {agg['controllable_acceptance']}\n")
        out.write(f"  bound rules fired: {agg['rules_fired']}\n")
        out.write(f"  searched {agg['searched']}, classes {agg['classes_found']}, "
                  f"mates {agg['mates_found']}, witnesses {agg['witnesses_checked']}\n")
        out.write(f"  max observed level valuation by prime: "
                  f"{agg['max_observed_by_prime']}\n")
        out.write(f"  bound violations: {len(agg['bound_violations'])}, "
                  f"lemma failures: {len(agg['lemma_failures'])}, "
                  f"mate-bound violations: {len(agg['mate_bound_violations'])}, "
                  f"conjecture violations: {len(agg['conjecture_violations'])}\n")
    if agg["bound_violations"] or agg["lemma_failures"] or agg["mate_bound_violations"]:
        sys.stderr.write("invariant violation: a proven bound failed on an instance\n")
        return 3
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (input error); argparse's own 2 means a resource cap here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="walklevel",
        description="Exact walk-matrix invariants, Smith normal forms, level "
                    "bounds, and cospectral-mate search for graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="profiles, bounds and certificates per graph")
    p.add_argument("path", nargs="?", default="-", help="graph6/adjacency file or - for stdin")
    p.add_argument("--format", choices=("auto", "g6", "adj"), default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("mates", help="exhaustive admissible-matrix search for one graph")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--format", choices=("auto", "g6", "adj"), default="auto")
    p.add_argument("--levels", default="auto",
                   help="'auto' (divisors of the level bound) or comma-separated list")
    p.add_argument("--level-cap", type=int, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mates)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix file")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--prime", type=int, help="also reduce over Z/p^kZ")
    p.add_argument("--power", type=int, default=1, help="k for Z/p^kZ (default 1)")
    p.add_argument("--oracle-check", action="store_true",
                   help="cross-check factor products against gcds of k x k minors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("sweep", help="seeded random-graph sweep with zero-violation checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n-min", type=int, default=6)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--edge-prob", default="1/2", help="rational edge probability a/b")
    p.add_argument("--level-cap", type=int, default=100)
    p.add_argument("--prime", type=int, action="append",
                   help="restrict the searched odd primes (repeatable); default: auto")
    p.add_argument("--no-mates", action="store_true", help="skip the mate search stage")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="write the canonical JSON report to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConjugationError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except (SearchCapExceeded, FactorizationError) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
