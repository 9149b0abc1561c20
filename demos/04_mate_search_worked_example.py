#!/usr/bin/env python3
"""The full pipeline on the bundled 10-vertex graph.

This graph has normalized walk determinant 3^4 * 19 with rank_3 W = 9, so
the half-valuation rule caps every level at 3^2 = 9. The complete lattice
search then finds exactly two non-permutation classes, at levels 3 and 9,
whose columns coincide with the bundled fixture matrices (up to column
order). Each found matrix yields a congruence witness whose structural
conclusions are re-verified with exact Smith forms.

Run:  python demos/04_mate_search_worked_example.py
"""

from walklevel import (
    conjecture_check,
    conjugate,
    emit_graph6,
    enumerate_columns,
    extract_four_cong_witness,
    generalized_cospectral,
    isomorphic,
    level_bounds,
    load_worked_example,
    search_mates,
    verify_proof_lemmas,
    walk_matrix,
    walk_profile,
)

BANNER = "=" * 64


def main():
    ex = load_worked_example()
    g = ex.graph
    print(BANNER)
    print(f"Bundled graph: {emit_graph6(g)} (n = {g.n})")
    print(BANNER)

    prof = walk_profile(g)
    print(f"\ndet W = {prof.det_w} = 2^5 * 3^4 * 19, rank_3 W = {prof.rank_p(3)}")
    rep = level_bounds(prof)
    print(f"level bound: every admissible level divides {rep.overall_divisor}")

    print("\ncolumn candidates (exact lattice slices):")
    for lvl in (1, 3, 9):
        cands = enumerate_columns(prof, lvl)
        print(f"  level {lvl}: {len(cands)} vectors with norm {lvl}^2, "
              f"sum {lvl}, walk congruence mod {lvl}")

    print("\nassembling complete matrices at levels 1, 3, 9:")
    classes = search_mates(prof, [1, 3, 9])
    for cls in classes:
        kind = "permutation class" if cls.level == 1 else "mate"
        print(f"  level {cls.level}: {kind}, mate graph {emit_graph6(cls.mate)}, "
              f"isomorphic to input: {cls.isomorphic_to_input}")

    print("\nthe two non-permutation classes equal the bundled fixtures:")
    keys = {c.q.canonical_key() for c in classes if c.level > 1}
    print(f"  match: {keys == {ex.q_level3.canonical_key(), ex.q_level9.canonical_key()}}")

    print("\nsoundness, re-verified from scratch for each mate:")
    w = walk_matrix(g)
    for cls in classes:
        if cls.level == 1:
            continue
        h = conjugate(cls.q, g)
        print(f"  level {cls.level}: cospectral {generalized_cospectral(g, h)}, "
              f"non-isomorphic {not isomorphic(g, h)}, "
              f"walk identity {cls.q.num.T @ w == cls.level * walk_matrix(h)}")

    print("\ncongruence witnesses and structural checks at p = 3:")
    for cls in classes:
        if cls.level == 1:
            continue
        wit = extract_four_cong_witness(prof, cls.q, 3)
        chk = verify_proof_lemmas(prof, wit)
        print(f"  level {cls.level}: tau = {wit.tau}, lambda0 = {wit.lambda0}, "
              f"four congruences {all(wit.checks)}, lemma conclusions {chk.all_ok}")

    print("\nrefined-bound tally (report only, nothing asserted):")
    conj = conjecture_check(prof, [cls.level for cls in classes])
    for e in conj.entries:
        print(f"  p = {e.prime}: observed max valuation {e.observed_max}, "
              f"candidate ceiling (v_p(d_n) + v_p(d_n-1))/2 = "
              f"{e.last_two_valuation_sum}/2, det ceiling {e.det_valuation}/2")


if __name__ == "__main__":
    main()
