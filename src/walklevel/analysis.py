"""The per-graph analysis shared by the analyze and mates commands and the sweep.

Both stages take a graph's walk profile alone and read G, W and n off it.
``analyze`` builds the profile's record around one bound table,
``level_bounds(prof)``, which the DGS certificate and the family test
read. ``check_classes`` re-verifies the classes a search found: at every
odd prime p that divides a class's level with rank_p W = n - 1 it extracts
the four-congruence witness, re-checks the proof lemmas and tests
v_p(level) against the exponent that the bound table gives at p (0 for a
prime without an entry; an unbounded prime is not tested); then it
tallies the refined conjecture.
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
from .graphs import WalkProfile, emit_graph6
from .matesearch import MateClass


def analyze(prof: WalkProfile) -> dict:
    """The record of a graph's profile; bounds and certificates need det W != 0.

    Only walk_profile factors; the other stages read the profile's prime
    table, and the certificate and family test read the one bound table.
    """
    rec = {"graph6": emit_graph6(prof.graph), "profile": prof.as_dict()}
    if prof.controllable:
        bounds = level_bounds(prof)
        rec["bounds"] = bounds.as_dict()
        rec["dgs"] = dgs_certificate(prof, bounds).as_dict()
        rec["family"] = family_membership(prof, bounds).as_dict()
        rec["mate_bounds"] = mate_count_bounds(prof).as_dict()
    return rec


def check_classes(prof: WalkProfile, classes: list[MateClass]) -> dict:
    """Class records, witnesses, lemma checks, bound check and conjecture tally.

    The profile's prime table picks the witness primes and its W feeds
    every check; the bound check reads ``level_bounds(prof)``.
    """
    caps = {e.prime: e.exponent for e in level_bounds(prof).entries}
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
            wit = extract_four_cong_witness(prof, cls.q, p)
            cap = caps.get(p, 0)
            if cap is not None and wit.tau > cap:
                violations.append({"prime": p, "level": cls.level, "tau": wit.tau})
            witnesses.append(wit.as_dict())
            lemma_checks.append(verify_proof_lemmas(prof, wit).as_dict())
    return {
        "classes": records,
        "witnesses": witnesses,
        "lemma_checks": lemma_checks,
        "bound_check": {"violations": violations},
        "conjecture": conjecture_check(prof, [cls.level for cls in classes]).as_dict(),
    }
