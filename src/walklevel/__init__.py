"""walklevel: exact spectral-determination toolkit for graphs.

Computes walk-matrix invariants in exact integer arithmetic, Smith normal
forms over Z and Z/p^kZ, per-prime bounds on the levels of rational regular
orthogonal matrices, and complete desk-scale searches for generalized
cospectral mates.
"""

from .analysis import analyze, check_classes
from .arith import divisors, factorize, is_prime, v_p
from .bounds import (
    ConjectureReport,
    DgsCertificate,
    FamilyMembership,
    FourCongWitness,
    LemmaCheckReport,
    LevelBoundReport,
    MateCountBounds,
    PrimeBound,
    conjecture_check,
    dgs_certificate,
    extract_four_cong_witness,
    family_membership,
    level_bounds,
    mate_count_bounds,
    verify_proof_lemmas,
)
from .errors import (
    ConjugationError,
    FactorizationError,
    InvariantError,
    ParseError,
    SearchCapExceeded,
)
from .fixtures import WorkedExample, load_worked_example, parse_int_matrix_text
from .graphs import (
    Graph,
    WalkProfile,
    emit_graph6,
    generalized_cospectral,
    isomorphic,
    parse_graph6,
    walk_matrix,
    walk_profile,
)
from .intmat import IntMatrix, char_poly, det, dot
from .matesearch import (
    MateClass,
    distinct_mate_graphs,
    enumerate_columns,
    search_mates,
)
from .ortho import RatRegOrtho, conjugate
from .snf import (
    KernelShape,
    ModPK,
    SnfResult,
    dn_test,
    extend_basis,
    kernel_shape,
    rank_mod_p,
    snf_int,
    snf_mod_pk,
    solvable_mod_pk,
)
from .sweep import SweepConfig, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ConjectureReport", "ConjugationError", "DgsCertificate", "FactorizationError",
    "FamilyMembership", "FourCongWitness", "Graph", "IntMatrix",
    "InvariantError", "KernelShape", "LemmaCheckReport", "LevelBoundReport",
    "MateClass", "MateCountBounds", "ModPK", "ParseError", "PrimeBound",
    "RatRegOrtho", "SearchCapExceeded", "SnfResult", "SweepConfig", "WalkProfile",
    "WorkedExample", "analyze", "char_poly", "check_classes",
    "conjecture_check", "conjugate",
    "det", "dgs_certificate", "distinct_mate_graphs", "divisors",
    "dn_test", "dot", "emit_graph6", "enumerate_columns", "extend_basis",
    "extract_four_cong_witness", "factorize", "family_membership",
    "generalized_cospectral", "is_prime", "isomorphic",
    "kernel_shape", "level_bounds", "load_worked_example",
    "mate_count_bounds", "parse_graph6", "parse_int_matrix_text", "rank_mod_p",
    "run_sweep", "search_mates", "snf_int", "snf_mod_pk", "solvable_mod_pk",
    "v_p", "verify_proof_lemmas", "walk_matrix", "walk_profile",
]
