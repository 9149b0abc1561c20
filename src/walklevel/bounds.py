"""Per-prime level bounds, certificates, and congruence-witness checks.

The rules bound v_p(level) for every admissible orthogonal matrix of a
controllable graph:

  odd-squarefree      p odd, p^2 does not divide det W  ->  exponent 0
  half-valuation      p odd, rank_p W = n-1              ->  floor(v_p(det W)/2)
  two-adic-odd        det W / 2^floor(n/2) odd           ->  exponent 0 at p = 2

half-valuation is never worse than the older v_p(det W) - 1 once v_p >= 2,
so no report records the older bound. When no rule applies the prime is
reported as unbounded rather than guessed at. ``level_bounds`` is the only
code that applies these rules: the DGS certificate, the family test and
``analysis.check_classes`` read its ``LevelBoundReport``.

The witness machinery extracts, from a level-divisible matrix, a vector z0
and eigenvalue lambda0 satisfying four exact congruences, then re-verifies
the structural conclusions that make the half-valuation bound work (the
Smith shape of A - lambda0*I over Z and over Z/p^tau, the shape of
[A - lambda0*I | z0], and the existence of z1 with unit coordinate sum).
Every check reads one Smith decomposition U, S, V of A - lambda0*I over
Z/p^tau; the shape over Z follows from it, since the local factors are
gcd(f_i, p^tau) of the factors f_i over Z. Any failed conclusion is
returned as a structured counterexample report, never papered over.
Both the witness and the lemma checks take the graph's walk profile alone
and read G, W and n off it.

Every report but ``LevelBoundReport`` (entries under ``per_prime``) writes
its JSON through ``Report.as_dict``, one key per field in field order;
``LemmaCheckReport`` adds ``all_ok`` and ``ConjectureReport`` ``any_violation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .arith import v_p
from .errors import InvariantError
from .graphs import WalkProfile
from .intmat import IntMatrix, dot
from .ortho import RatRegOrtho
from .snf import _augmented_factors, _kernel, _solve, snf_mod_pk

RULE_ODD_SQUAREFREE = "odd-squarefree"
RULE_HALF_VALUATION = "half-valuation"
RULE_TWO_ADIC_ODD = "two-adic-odd"
RULE_NONE = "none"


class Report:
    """Field-less base of the reports: ``as_dict`` maps each dataclass field
    to its value, a tuple written as a list and a nested report as its own
    dict."""

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(x):
    if isinstance(x, Report):
        return x.as_dict()
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# Level bounds and arithmetic certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeBound(Report):
    prime: int
    exponent: int | None  # None = unbounded by the implemented rules
    rule: str


@dataclass(frozen=True)
class LevelBoundReport:
    entries: tuple[PrimeBound, ...]
    overall_divisor: int | None  # every admissible level divides this, when known

    def as_dict(self) -> dict:
        return {
            "per_prime": [e.as_dict() for e in self.entries],
            "overall_divisor": self.overall_divisor,
        }


def level_bounds(profile: WalkProfile) -> LevelBoundReport:
    """Apply every per-prime rule to a controllable profile.

    The two-adic rule decides p = 2 from the normalized determinant nd
    alone, so the overall divisor needs only the table's odd primes to
    account for the odd part of nd; a table that leaves part of it out
    bounds its own primes and gives no overall divisor.
    """
    if not profile.controllable:
        raise ValueError("level bounds require a controllable graph")
    nd = profile.normalized_det
    rest = abs(nd) // (nd & -nd)  # the odd part of nd
    entries = []
    if nd % 2 != 0:
        entries.append(PrimeBound(2, 0, RULE_TWO_ADIC_ODD))
    else:
        entries.append(PrimeBound(2, None, RULE_NONE))
    for p in profile.odd_primes():
        v, rank = profile.primes[p]
        if v == 0:
            continue
        rest //= p ** v
        if v == 1:
            entries.append(PrimeBound(p, 0, RULE_ODD_SQUAREFREE))
        elif rank == profile.n - 1:
            entries.append(PrimeBound(p, v // 2, RULE_HALF_VALUATION))
        else:
            entries.append(PrimeBound(p, None, RULE_NONE))
    bounded = rest == 1 and all(e.exponent is not None for e in entries)
    overall = math.prod(e.prime ** e.exponent for e in entries) if bounded else None
    return LevelBoundReport(tuple(entries), overall)


@dataclass(frozen=True)
class DgsCertificate(Report):
    status: str  # "DGS" | "Unknown"
    reason: str


def dgs_certificate(profile: WalkProfile, bounds: LevelBoundReport) -> DgsCertificate:
    """Certify determination-by-generalized-spectrum exactly when the bound
    table ``bounds`` (``level_bounds(profile)``) gives overall divisor 1, so
    that every admissible level is 1; under the rules above that means the
    normalized determinant is odd and square-free. Otherwise report Unknown,
    never "not DGS", with the first prime whose bound is not 0, or else the
    prime table that leaves part of the normalized determinant out."""
    nd = profile.normalized_det
    if bounds.overall_divisor == 1:
        return DgsCertificate("DGS", f"normalized determinant {nd} is odd and square-free")
    for e in bounds.entries:
        if e.exponent != 0:
            shape = "even" if e.prime == 2 else "not square-free"
            return DgsCertificate("Unknown", f"normalized determinant {nd} is {shape}")
    return DgsCertificate("Unknown", f"the prime table {sorted(profile.primes)} leaves "
                                     f"part of the normalized determinant {nd} out")


@dataclass(frozen=True)
class FamilyMembership(Report):
    """Classification by normalized determinant shape p^e * b.

    exponent 2: the graph sits in the family with a single squared odd
    prime (at most one mate); exponent 3 is the extension allowing a cube.
    """

    exponent: int | None  # v_p(det W): 2, 3 or None under the rules above
    prime: int | None
    cofactor: int | None


def family_membership(profile: WalkProfile, bounds: LevelBoundReport) -> FamilyMembership:
    """Membership when the bound table ``bounds`` (``level_bounds(profile)``)
    gives a single odd prime p of the profile's table as overall divisor,
    so that every admissible level is 1 or p. Under the rules above that
    happens exactly when the normalized determinant is p^e * b with e in
    (2, 3), b odd, square-free and coprime to p, and rank_p W = n - 1. The
    exponent is v_p(det W) and the cofactor |nd| / p^e."""
    p = bounds.overall_divisor
    if p != 2 and p in profile.primes:
        e = profile.valuation(p)
        return FamilyMembership(e, p, abs(profile.normalized_det) // p**e)
    return FamilyMembership(None, None, None)


@dataclass(frozen=True)
class MateCountBounds(Report):
    """Upper bounds on the number of cospectral mates from d_n's factorization.

    ``basic`` multiplies the exponents; ``improved`` halves the odd ones
    first. Both require d_{ceil(n/2)} = 1 and d_{n-1} = 2; otherwise the
    bounds do not apply and ``reason`` says why.
    """

    basic: int | None
    improved: int | None
    reason: str


def mate_count_bounds(profile: WalkProfile) -> MateCountBounds:
    """The bounds from d_n, factored through the profile's prime table.

    Under the hypotheses d_1 ... d_{n-1} are 1 or 2, so the odd part of d_n
    is that of the normalized determinant, whose primes the table holds.
    """
    if not profile.controllable:
        return MateCountBounds(None, None, "walk matrix is singular")
    d = profile.invariant_factors
    n = len(d)
    half_idx = (n + 1) // 2  # ceil(n/2), 1-based
    if d[half_idx - 1] != 1:
        return MateCountBounds(
            None, None, f"d_{half_idx} = {d[half_idx - 1]} != 1"
        )
    if n < 2 or d[n - 2] != 2:
        return MateCountBounds(None, None, f"d_{n-1} = {d[n - 2] if n >= 2 else '?'} != 2")
    fac = profile.factor(d[n - 1])
    basic = math.prod(fac.values())
    improved = fac.get(2, 0) * math.prod(e // 2 + 1 for p, e in fac.items() if p != 2)
    return MateCountBounds(basic - 1, improved - 1, "hypotheses hold")


# ---------------------------------------------------------------------------
# Four-congruence witness (the engine behind the half-valuation bound)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourCongWitness(Report):
    """z0 and lambda0 with the four exact congruences that force the bound.

    checks, in order: z0.z0 = 0 (mod p^2tau), z0.A.z0 = 0 (mod p^2tau),
    W^T z0 = 0 (mod p^tau), A z0 = lambda0 z0 (mod p^tau).
    """

    prime: int
    tau: int
    z0: tuple[int, ...]
    lambda0: int
    checks: tuple[bool, bool, bool, bool]


def extract_four_cong_witness(prof: WalkProfile, q: RatRegOrtho, p: int) -> FourCongWitness:
    """Extract the witness column from a scaled orthogonal matrix.

    Requires tau = v_p(level) >= 1 and rank_p W = n-1. Takes the
    lowest-index column of num with a unit entry mod p (determinism for
    golden tests) and reads lambda0 off its first unit entry z0_i as
    (A z0)_i / z0_i mod p^tau. A failed fourth congruence then means no
    eigenvalue exists and raises ValueError; a failure of the other three
    raises InvariantError, since they are theorems under the preconditions.
    """
    if p == 2 or p < 2:
        raise ValueError("witness extraction is defined for odd primes")
    tau = v_p(q.level, p)
    if tau == 0:
        raise ValueError(f"level {q.level} has no factor {p}: tau = 0")
    a = prof.graph.adjacency()
    w = prof.W

    z0 = None
    for j in range(q.n):
        col = q.num.column(j)
        if any(x % p for x in col):
            z0 = col
            break
    if z0 is None:
        raise InvariantError("scaled matrix is divisible by p despite lowest terms")

    # the one lambda0 that z0's unit entry allows; the fourth check says if it is one
    pt, p2t = p ** tau, p ** (2 * tau)
    az0 = a.mat_vec(z0)
    pivot = next(i for i, x in enumerate(z0) if x % p)
    lam = az0[pivot] * pow(z0[pivot], -1, pt) % pt
    checks = (
        dot(z0, z0) % p2t == 0,
        dot(z0, az0) % p2t == 0,
        all(x % pt == 0 for x in w.T.mat_vec(z0)),
        all((az0[i] - lam * z0[i]) % pt == 0 for i in range(len(z0))),
    )
    if not checks[3]:
        raise ValueError(f"A z = lambda z has no solution mod {p}^{tau}; hypotheses are violated")
    if not all(checks):
        raise InvariantError(
            f"witness congruences failed: {checks}; this contradicts the "
            "theory under the stated preconditions"
        )
    return FourCongWitness(p, tau, z0, lam, checks)


# ---------------------------------------------------------------------------
# Structural lemma verification on an instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheckReport(Report):
    """Conclusions re-verified on one (graph, witness) instance.

    A False flag is a counterexample to the theory at this instance, which
    in practice means an implementation bug; the report carries enough data
    to reproduce it.
    """

    prime: int
    tau: int
    lambda0: int
    c: int | None  # exponent with (A - lambda0 I) z1 = p^c z0 solvable
    shifted_snf_over_z_ok: bool   # f_{n-2} unit mod p, p^tau | f_n; read off the local factors
    shifted_snf_mod_ok: bool      # shape diag(1,...,1,p^c,0) over Z/p^tau
    augmented_snf_ok: bool        # [A - lambda0 I, z0] has shape diag(I_{n-1},0),0
    z1: tuple[int, ...] | None
    z1_equation_ok: bool
    z1_unit_sum_ok: bool
    walk_congruence_ok: bool      # W^T y = (e.y) (1, lambda0, ..., lambda0^{n-1})
    notes: tuple[str, ...] = field(default=())

    @property
    def all_ok(self) -> bool:
        return (
            self.shifted_snf_over_z_ok
            and self.shifted_snf_mod_ok
            and self.augmented_snf_ok
            and self.z1 is not None
            and self.z1_equation_ok
            and self.z1_unit_sum_ok
            and self.walk_congruence_ok
        )

    def as_dict(self) -> dict:
        out = super().as_dict()
        notes = out.pop("notes")
        return {**out, "all_ok": self.all_ok, "notes": notes}


def _walk_congruence_holds(
    wt: IntMatrix, y: tuple[int, ...], lam: int, modulus: int
) -> bool:
    """W^T y = (e.y)(1, lam, ..., lam^{n-1}) mod modulus, given wt = W^T."""
    ey = sum(y)
    lam_pow = 1
    for lhs in wt.mat_vec(y):
        if (lhs - ey * lam_pow) % modulus:
            return False
        lam_pow *= lam
    return True


def verify_proof_lemmas(prof: WalkProfile, witness: FourCongWitness) -> LemmaCheckReport:
    """Re-verify the structural conclusions behind the level bound.

    Checks that the shifted adjacency A - lambda0*I has corank <= 1 mod p
    with p^tau dividing its last invariant factor, over Z/p^tau and so over
    Z (the local factors are gcd(f_i, p^tau)); that augmenting it by z0
    yields the free rank-(n-1) shape; and that a vector z1 with unit
    coordinate sum solves (A - lambda0 I) z1 = p^c z0. All found vectors are
    spot-checked against W^T y = (e.y)(1, lambda0, ..., lambda0^{n-1}). One
    Smith decomposition U (A - lambda0*I) V = S over Z/p^tau is the only
    elimination: the augmented shape is read off [S | U z0], every trial exponent
    c < tau through U and S, and the kernel at c = tau off V, whose last two
    columns k1, k2 span it. There z0 = s k1 + t k2, and z1 is k2 when s is
    a unit mod p ({z0, k2} is then a kernel basis), else k1. A z0 outside
    the kernel leaves z1 None with a note.
    """
    p, tau, z0, lam = witness.prime, witness.tau, witness.z0, witness.lambda0
    n = prof.n
    if n < 3:
        raise ValueError("lemma verification needs n >= 3")
    q = p ** tau
    a = prof.graph.adjacency()
    wt = prof.W.T
    b = a - lam * IntMatrix.identity(n)
    notes: list[str] = []

    # Smith form over Z/p^tau: diag(1, ..., 1, p^c, 0); U, S, V also give z1 below.
    # Its factors are gcd(f_i, p^tau) of the factors f_i over Z, so this shape
    # also decides the over-Z one: f_{n-2} a unit mod p and p^tau | f_n.
    res_mod = snf_mod_pk(b, p, tau)
    fac = res_mod.invariant_factors
    mod_ok = n - 2 <= len(fac) <= n - 1 and all(x == 1 for x in fac[: n - 2])
    c_shape = v_p(fac[n - 2], p) if len(fac) == n - 1 else tau
    if not mod_ok:
        notes.append(f"shifted Smith form mod {p}^{tau} has factors {fac}")

    # augmented [A - lambda0 I, z0] must be free of rank n-1 over Z/p^tau
    aug_fac = _augmented_factors(res_mod, z0)
    aug_ok = aug_fac == (1,) * (n - 1)
    if not aug_ok:
        notes.append(f"augmented Smith form factors {aug_fac}")

    # find z1 with (A - lambda0 I) z1 = p^c z0 and unit coordinate sum,
    # trying c ascending; at c = tau the equation degenerates to the kernel,
    # where z1 completes {z0} to a kernel basis instead.
    z1 = c_found = None
    eq_ok = sum_ok = False
    for c_try in range(tau):
        z1 = _solve(res_mod, tuple((p ** c_try * v) % q for v in z0))
        if z1 is not None:
            c_found = c_try
            break
    else:
        ks = _kernel(res_mod)
        if ks.torsion_exponents or ks.free_rank != 2:
            notes.append(
                f"kernel shape unexpected: torsion {ks.torsion_exponents}, "
                f"free rank {ks.free_rank}"
            )
        elif any(x % q for x in b.mat_vec(z0)):
            notes.append(f"z0 is not in the kernel of A - lambda0 I mod {p}^{tau}")
        else:
            # z0 = s k1 + t k2 in the kernel basis, z0 != 0 mod p (else c = tau - 1
            # solves); s is a unit exactly when some 2 x 2 minor of (z0, k2) is
            k1, k2 = ks.free_basis
            unit_s = any((z0[i] * k2[j] - z0[j] * k2[i]) % p
                         for i in range(n) for j in range(i + 1, n))
            z1, c_found = (k2 if unit_s else k1), tau
    if z1 is not None:
        rhs = tuple((p ** c_found * v) % q for v in z0)
        eq_ok = tuple(x % q for x in b.mat_vec(z1)) == rhs
        sum_ok = sum(z1) % p != 0
        if c_found != c_shape:
            notes.append(f"first solvable exponent {c_found} != shape exponent {c_shape}")
    else:
        notes.append("no z1 found at any exponent")

    walk_ok = all(_walk_congruence_holds(wt, y, lam, q) for y in (z0, z1) if y is not None)

    return LemmaCheckReport(
        prime=p,
        tau=tau,
        lambda0=lam,
        c=c_found,
        shifted_snf_over_z_ok=mod_ok,
        shifted_snf_mod_ok=mod_ok and c_found == c_shape,
        augmented_snf_ok=aug_ok,
        z1=z1,
        z1_equation_ok=eq_ok,
        z1_unit_sum_ok=sum_ok,
        walk_congruence_ok=walk_ok,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Conjecture tally (report-only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureEntry(Report):
    prime: int
    observed_max: int              # max v_p(level) over the supplied levels
    last_two_valuation_sum: int    # v_p(d_n) + v_p(d_{n-1})
    det_valuation: int
    violates_refined: bool         # 2*observed > v_p(d_n) + v_p(d_{n-1})
    violates_det_half: bool        # 2*observed > v_p(det W)


@dataclass(frozen=True)
class ConjectureReport(Report):
    entries: tuple[ConjectureEntry, ...]

    @property
    def any_violation(self) -> bool:
        return any(e.violates_refined or e.violates_det_half for e in self.entries)

    def as_dict(self) -> dict:
        return {**super().as_dict(), "any_violation": self.any_violation}


def conjecture_check(profile: WalkProfile, observed_levels: list[int]) -> ConjectureReport:
    """Compare observed level valuations against the refined candidate bound
    built from the last two invariant factors. Violations are flagged as
    findings, never asserted away (the bound is unproven)."""
    if not profile.controllable:
        raise ValueError("conjecture check requires a controllable graph")
    d = profile.invariant_factors
    n = profile.n
    entries = []
    for p in profile.odd_primes():
        obs = max((v_p(lvl, p) for lvl in observed_levels if lvl), default=0)
        vd = profile.valuation(p)
        vsum = v_p(d[n - 1], p) + (v_p(d[n - 2], p) if n >= 2 else 0)
        entries.append(ConjectureEntry(
            prime=p,
            observed_max=obs,
            last_two_valuation_sum=vsum,
            det_valuation=vd,
            violates_refined=2 * obs > vsum,
            violates_det_half=2 * obs > vd,
        ))
    return ConjectureReport(tuple(entries))
