"""The per-graph analysis shared by the analyze and mates commands and the sweep.

``analyze`` builds a graph's profile record. ``check_classes`` re-verifies
the classes a search found: at every odd prime p that divides a class's
level with rank_p W = n - 1 it extracts the four-congruence witness,
re-checks the proof lemmas and tests the half-valuation bound
v_p(level) <= floor(v_p(det W) / 2); then it tallies the refined conjecture.
"""

from __future__ import annotations

from .bounds import (
    conjecture_check,
    dgs_certificate,
    extract_four_cong_witness,
    family_membership,
    level_bounds,
    mate_count_bounds,
    verify_proof_lemmas,
)
from .graphs import Graph, WalkProfile, emit_graph6, profile_walk, walk_profile
from .matesearch import MateClass


def analyze(g: Graph) -> tuple[WalkProfile, dict]:
    """The profile of g and its record; bounds and certificates need det W != 0.

    Only walk_profile factors; the other stages read the profile's prime table.
    """
    return _analyze(g, walk_profile(g))


def _analyze(g: Graph, prof: WalkProfile) -> tuple[WalkProfile, dict]:
    """analyze for a caller that already holds the automatic profile of g."""
    rec = {"graph6": emit_graph6(g), "profile": prof.as_dict()}
    if prof.controllable:
        rec["bounds"] = level_bounds(prof).as_dict()
        rec["dgs"] = dgs_certificate(prof).as_dict()
        rec["family"] = family_membership(prof).as_dict()
        rec["mate_bounds"] = mate_count_bounds(prof).as_dict()
    return prof, rec


def check_classes(g: Graph, prof: WalkProfile, classes: list[MateClass]) -> dict:
    """Class records, witnesses, lemma checks, bound check and conjecture tally.

    ``prof`` must be g's own profile (ValueError otherwise): its prime
    table picks the witness primes and its W feeds every check.
    """
    profile_walk(g, prof)
    records = []
    witnesses = []
    lemma_checks = []
    violations = []
    for cls in classes:
        records.append({
            "level": cls.level,
            "qhat": [list(row) for row in cls.q.num.data],
            "mate_graph6": emit_graph6(cls.mate),
            "isomorphic_to_input": cls.isomorphic_to_input,
        })
        for p in prof.odd_primes():
            if cls.level % p or prof.rank_p(p) != prof.n - 1:
                continue
            wit = extract_four_cong_witness(g, cls.q, p, profile=prof)
            if wit.tau > prof.valuation(p) // 2:
                violations.append({"prime": p, "level": cls.level, "tau": wit.tau})
            witnesses.append(wit.as_dict())
            lemma_checks.append(verify_proof_lemmas(g, wit, profile=prof).as_dict())
    return {
        "classes": records,
        "witnesses": witnesses,
        "lemma_checks": lemma_checks,
        "bound_check": {"violations": violations},
        "conjecture": conjecture_check(prof, [cls.level for cls in classes]).as_dict(),
    }
