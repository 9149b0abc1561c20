#!/usr/bin/env python3
"""Per-prime level bounds and arithmetic certificates.

Every rational regular orthogonal matrix carrying a controllable graph to a
mate has a level (the denominator in lowest terms). The bound rules pin
down, prime by prime, how large that level can be, directly from the walk
determinant and per-prime ranks:

  odd-squarefree       p^2 does not divide det W      -> exponent 0
  half-valuation       rank_p W = n - 1               -> floor(v_p / 2)
  two-adic-odd         det W / 2^floor(n/2) is odd    -> exponent 0 at p = 2

Run:  python demos/03_level_bounds_certificates.py
"""

from walklevel import (
    dgs_certificate,
    family_membership,
    level_bounds,
    load_worked_example,
    mate_count_bounds,
    walk_profile,
)
from walklevel.sweep import derive_stream, random_graph

BANNER = "=" * 64


def describe(g, label):
    prof = walk_profile(g)
    print(f"\n{label}: n={g.n}, det W = {prof.det_w}, "
          f"normalized = {prof.normalized_det}")
    rep = level_bounds(prof)
    for e in rep.entries:
        shown = e.exponent if e.exponent is not None else "unbounded-by-these-rules"
        print(f"  p={e.prime:>3}: exponent {shown}  [{e.rule}]")
    print(f"  overall: every admissible level divides "
          f"{rep.overall_divisor if rep.overall_divisor else '(unknown)'}")
    cert = dgs_certificate(prof, rep)
    print(f"  determined-by-generalized-spectrum: {cert.status} ({cert.reason})")
    fam = family_membership(prof, rep)
    if fam.exponent in (2, 3):
        print(f"  normalized det = {fam.prime}^{fam.exponent} * {fam.cofactor}: "
              f"at most one cospectral mate")
    mcb = mate_count_bounds(prof)
    if mcb.basic is not None:
        print(f"  mate-count bounds from d_n: improved {mcb.improved}, "
              f"basic {mcb.basic}")


def main():
    print(BANNER)
    print("Level bounds, determination certificates, mate-count bounds")
    print(BANNER)

    describe(load_worked_example().graph, "bundled 10-vertex graph")

    # scan a few seeded random controllable graphs for variety: the rules
    # that fire depend on the determinant's factorization shape
    found = 0
    index = 0
    while found < 4:
        for attempt in range(200):
            g = random_graph(derive_stream(2024, index, attempt), 8, 1, 2)
            if walk_profile(g).controllable:
                describe(g, f"random controllable graph #{found + 1}")
                found += 1
                break
        index += 1


if __name__ == "__main__":
    main()
