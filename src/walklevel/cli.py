"""Command-line front end: analyze, mates, snf, sweep.

``main(argv)`` may be called any number of times in one process; every
argv goes through one full parser, built on the first call.

Exit codes: 0 success, 1 input error, 2 resource cap exceeded, 3 invariant
violation, a proven statement failing on an instance (a bug): a mates lemma
check or level bound, a sweep's bound, lemma or mate-bound violations (its
conjecture violations are only reported), or an snf --oracle-check
disagreement. ``main`` alone picks the code, from the exception a command
raises; such a command writes its full report first, then raises
InvariantError. A sweep slot or an analyze graph that cannot be factored
is an unknown record, not an exit 2; ``mates`` writes that record, then
raises FactorizationError, as no rule bounds the cofactor's primes.
``mates`` searches each level on its
own and lists a level that hits a search cap under "levels_capped"; after
its full report it raises InvariantError on a failed check, else
SearchCapExceeded when a level was capped. Its automatic levels are the
divisors > 1 of prod p^min(v_p(d_n), e_p), with e_p the bound table's
exponent at p (v_p(d_n) where no rule bounds p). JSON output is
versioned with "schema": 1 and serialized canonically (sorted keys,
compact separators) so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import combinations
from math import gcd

from .analysis import analyze, check_classes
from .arith import divisors
from .bounds import level_bounds
from .errors import FactorizationError, InvariantError, ParseError, SearchCapExceeded
from .fixtures import _parse_numbered_lines, parse_int_matrix_text
from .graphs import Graph, emit_graph6, parse_graph6, walk_profile
from .intmat import IntMatrix, det
from .matesearch import search_mates
from .snf import snf_int, snf_mod_pk
from .sweep import SCHEMA, SweepConfig, report_json, run_sweep


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


_NO_VERTEX = "the graph on 0 vertices has no walk matrix"


def read_graphs(text: str) -> list[Graph]:
    """Graphs from graph6 lines or the adjacency text format.

    Input whose first non-comment line is a bare integer is an adjacency
    file, anything else one graph6 string per line (graph6 bytes run from
    ``?`` to ``~`` and are never digits).
    The graph on 0 vertices has no walk matrix, so either format refuses it
    with a ParseError naming its line.
    """
    stripped = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not stripped:
        return []
    if stripped[0][1].isdigit():
        graphs = []
        pos = 0
        while pos < len(stripped):
            lineno, header = stripped[pos]
            try:
                n = int(header)
            except ValueError:
                raise ParseError(f"expected a vertex count, found {header!r}", line=lineno)
            if n == 0:
                raise ParseError(_NO_VERTEX, line=lineno)
            try:
                m = _parse_numbered_lines(stripped[pos: pos + n + 1])
                graphs.append(Graph(m.data))
            except ValueError as exc:
                if getattr(exc, "line", None) is not None:
                    raise  # a faulty row, already named by its file line
                raise ParseError(str(exc), line=lineno) from exc
            pos += n + 1
        return graphs
    graphs = []
    for lineno, line in stripped:
        try:
            g = parse_graph6(line)
        except ParseError as exc:
            raise ParseError(f"bad graph6: {exc}", line=lineno) from exc
        if g.n == 0:
            raise ParseError(_NO_VERTEX, line=lineno)
        graphs.append(g)
    return graphs


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _print_analysis(rec: dict, out) -> None:
    if "unknown" in rec:
        info = rec["unknown"]
        out.write(f"graph {rec['graph6']}  unknown: the factoring budget left the cofactor "
                  f"{info['cofactor']} of the normalized determinant {info['normalized_det']}\n")
        return
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


def cmd_analyze(args) -> None:
    graphs = read_graphs(_read_text(args.path))
    records = [analyze(walk_profile(g)) for g in graphs]
    if args.json:
        _emit_json({"graphs": records})
    else:
        for rec in records:
            _print_analysis(rec, sys.stdout)
        sys.stdout.write(f"{len(records)} graph(s) analyzed\n")


# ---------------------------------------------------------------------------
# mates
# ---------------------------------------------------------------------------


def _auto_levels(profile, bounds_rep, cap: int) -> tuple[list[int], list[str]]:
    # every level divides d_n, and the bound table caps its exponent at p
    bound = {e.prime: e.exponent for e in bounds_rep.entries if e.exponent is not None}
    exps = profile.factor(profile.d_n)
    free = [p for p in exps if p not in bound]
    notes = [f"no rule bounds the primes {free}; they take their exponents in the "
             f"last invariant factor {profile.d_n}"] if free else []
    levels = [d for d in divisors({p: min(v, bound.get(p, v)) for p, v in exps.items()})
              if d > 1]
    dropped = [d for d in levels if d > cap]
    if dropped:
        notes.append(f"levels over cap {cap} skipped: {dropped}")
    return [d for d in levels if d <= cap], notes


def _parse_levels(text: str) -> list[int]:
    levels = set()
    for tok in text.split(","):
        try:
            levels.add(int(tok))
        except ValueError:
            raise ValueError(f"--levels takes 'auto' or comma-separated integers, "
                             f"got {tok!r} in {text!r}") from None
    return sorted(levels)


def cmd_mates(args) -> None:
    if args.level_cap < 1:
        raise ValueError(f"level cap must be at least 1, got {args.level_cap}")
    graphs = read_graphs(_read_text(args.path))
    if len(graphs) != 1:
        raise ParseError(f"expected exactly one graph, found {len(graphs)}")
    g = graphs[0]
    prof = walk_profile(g)
    if not prof.controllable:
        raise ParseError("graph is not controllable; the search is undefined")
    if prof.cofactor != 1:  # no rule bounds the cofactor's primes
        rec = analyze(prof)
        if args.json:
            _emit_json(rec)
        else:
            _print_analysis(rec, sys.stdout)
        factored = {int(p): e for p, e in rec["unknown"]["factored"].items()}
        raise FactorizationError(abs(prof.normalized_det), factored, prof.cofactor)
    bounds_rep = level_bounds(prof)
    notes: list[str] = []
    if args.levels == "auto":
        levels, notes = _auto_levels(prof, bounds_rep, args.level_cap)
    else:
        levels = _parse_levels(args.levels)
    # a cap ends its level only: the classes of the others are still reported
    classes, capped = [], []
    for level in levels:
        try:
            classes += search_mates(prof, [level])
        except SearchCapExceeded as exc:
            capped.append(level)
            notes.append(f"level {level} capped: {exc}")
    checked = check_classes(prof, classes)
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
    if capped:
        payload["levels_capped"] = capped
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
    failures = [f"level bound failed: {violations}"] if violations else []
    if invariant_failed:
        failures.append("a verified conclusion failed")
    if failures:
        raise InvariantError("; ".join(failures))
    if capped:
        raise SearchCapExceeded(f"the search hit a cap at levels {capped}")


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


def cmd_snf(args) -> None:
    if args.power < 1:
        raise ValueError(f"power must be at least 1, got {args.power}")
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
    if args.prime is not None:
        resm = snf_mod_pk(m, args.prime, args.power)
        payload["mod"] = {
            "p": args.prime,
            "k": args.power,
            "U": [list(r) for r in resm.U.data],
            "S": [list(r) for r in resm.S.data],
            "V": [list(r) for r in resm.V.data],
            "invariant_factors": list(resm.invariant_factors),
        }
    # U and V can hold ints of more than the 4,300 digits that str() takes
    # by default; main may run many times in one process, so the limit is
    # lifted only while the report is written
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
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
    finally:
        sys.set_int_max_str_digits(digits)
    if "oracle_check" in payload and not all(payload["oracle_check"]["agrees"]):
        raise InvariantError("minor-gcd oracle disagrees")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_ratio(text: str) -> tuple[int, int]:
    num, slash, den = text.partition("/")
    try:
        return int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"--edge-prob takes a/b with integers a and b, "
                         f"got {text!r}") from None


def cmd_sweep(args) -> None:
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
        accepted = sum(stats["accepted"] for stats in agg["controllable_acceptance"].values())
        out.write(f"swept {agg['graphs']} slots, {accepted} controllable graphs "
                  f"(seed {config.seed}, n in [{config.n_min}, {config.n_max}])\n")
        out.write(f"  acceptance: {agg['controllable_acceptance']}\n")
        if "unknown_slots" in agg:
            out.write(f"  unknown slots (factoring budget exhausted): "
                      f"{agg['unknown_slots']}\n")
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
        raise InvariantError("a proven bound failed on an instance")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (input error); argparse's own 2 means a resource cap here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", default="-", help="graph6/adjacency file or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)


def _mates_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--levels", default="auto",
                   help="'auto' (divisors of the level bound) or comma-separated list")
    p.add_argument("--level-cap", type=int, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mates)


def _snf_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--prime", type=int, help="also reduce over Z/p^kZ")
    p.add_argument("--power", type=int, default=1, help="k for Z/p^kZ (default 1)")
    p.add_argument("--oracle-check", action="store_true",
                   help="cross-check factor products against gcds of k x k minors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_snf)


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    c = SweepConfig  # the command's defaults are its field defaults
    p.add_argument("--seed", type=int, default=c.seed)
    p.add_argument("--count", type=int, default=c.graph_count)
    p.add_argument("--n-min", type=int, default=c.n_min)
    p.add_argument("--n-max", type=int, default=c.n_max)
    p.add_argument("--edge-prob", default=f"{c.edge_prob_num}/{c.edge_prob_den}",
                   help="rational edge probability a/b")
    p.add_argument("--level-cap", type=int, default=c.level_cap)
    p.add_argument("--prime", type=int, action="append",
                   help="restrict the searched odd primes (repeatable); default: auto")
    p.add_argument("--no-mates", action="store_true", help="skip the mate search stage")
    p.add_argument("--workers", type=int, default=c.workers)
    p.add_argument("--out", help="write the canonical JSON report to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)


# command -> (help line in the full parser's listing, function adding its arguments)
_COMMANDS = {
    "analyze": ("profiles, bounds and certificates per graph", _analyze_arguments),
    "mates": ("exhaustive admissible-matrix search for one graph", _mates_arguments),
    "snf": ("Smith normal form of an integer matrix file", _snf_arguments),
    "sweep": ("seeded random-graph sweep with zero-violation checks", _sweep_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh full parser: every command of ``_COMMANDS`` as a subcommand.

    ``main`` parses every argv with one such parser, built on its first
    call and reused by every later call in the process.
    """
    parser = _Parser(
        prog="walklevel",
        description="Exact walk-matrix invariants, Smith normal forms, level "
                    "bounds, and cospectral-mate search for graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


# main's parser: built lazily, so importing cli builds none
_main_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one walklevel command; argv defaults to ``sys.argv[1:]``.

    Returns the exit code (see the module docstring): 0 when the command
    returns, else the code of the exception it raised. A usage error or a
    help request raises SystemExit from argparse, with code 1 or 0. It may
    be called any number of times in one process: the full parser is built
    on the first call and reused.
    """
    args = _main_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except (SearchCapExceeded, FactorizationError) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
