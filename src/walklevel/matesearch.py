"""Complete desk-scale enumeration of the admissible orthogonal matrices.

Every scaled column v of an admissible matrix at level l must satisfy the
lattice conditions

    v.v = l^2,   e.v = l,   W^T v = 0 (mod l),

so the search first enumerates that finite candidate set exactly (kernel
residues of W^T mod l from the modular Smith elimination over Z/lZ that
``snf`` shares with ``invariant_factors`` and ``snf_mod_pk``, then a
bounded box walk per residue with norm pruning), and then assembles full
matrices column by column under the running compatibility checks

    v_i . v_j = 0,   v_i^T A v_j in {0, l^2},   v_i^T A v_i = 0.

Columns are chosen in strictly increasing lexicographic order, which picks
exactly one representative from each right-permutation class {Q P}. The
assembly enumerates n-cliques of the precomputed compatibility graph with
bitsets; the tests cross-check it against plain backtracking.

Both stages take the graph's walk profile alone and read G, W and n off
it. A class is its Q and the mate Q^T A Q. For a controllable graph Q is
unique, so everything else a class states is read off Q: its level is Q's
denominator, and the mate is isomorphic to the input exactly when that
level is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .errors import SearchCapExceeded
from .graphs import Graph, WalkProfile
from .intmat import IntMatrix, dot
from .ortho import RatRegOrtho, conjugate
from .snf import _diagonal_mod, _identity

CANDIDATE_CAP = 10**6
NODE_CAP = 10**8


@dataclass(frozen=True)
class MateClass:
    """One admissible matrix up to column permutation, with its mate graph."""

    q: RatRegOrtho
    mate: Graph

    @property
    def level(self) -> int:
        return self.q.level

    @property
    def isomorphic_to_input(self) -> bool:
        # Q is unique for a controllable graph: a mate isomorphic to it
        # would give a second, permutation Q, so this holds only at level 1
        return self.level == 1


def enumerate_columns(
    prof: WalkProfile, level: int, *, cap: int = CANDIDATE_CAP
) -> list[tuple[int, ...]]:
    """All integer vectors v with v.v = level^2, e.v = level, W^T v = 0 mod level.

    The congruence confines v mod level to the kernel of W^T over Z/lZ.
    The modular Smith elimination of W^T (``snf._diagonal_mod``) carries
    its column transform V, whose entries stay below the level: with
    U W^T V = diag(g_i) mod level and U, V invertible, the kernel is V y
    with each y_i a multiple of level/g_i. Each residue class is then
    walked coordinate by coordinate with exact norm/sum pruning (every
    entry satisfies |v_i| <= level). The result is lexicographically
    sorted and complete, for singular W too.
    """
    if level < 1:
        raise ValueError("level must be positive")
    w = prof.W
    n = prof.n

    # product of the g_i = product of gcd(d_i, level) over W's invariant factors
    v = _identity(n)
    gcds = _diagonal_mod([[x % level for x in row] for row in w.T.data], level, v=v)
    total = 1
    for gi in gcds:
        total *= gi
        if total > cap:
            raise SearchCapExceeded(
                f"kernel of W^T mod {level} has more than {cap} residue classes"
            )

    lvl2 = level * level
    out: list[tuple[int, ...]] = []

    def box_walk(residue: tuple[int, ...]):
        # options per coordinate: all x = residue_i (mod level), |x| <= level
        options = []
        for r in residue:
            opts = [r, r - level] if r else [0, -level, level]
            options.append(sorted(opts))
        chosen = [0] * n

        def rec(idx: int, norm_left: int, sum_left: int):
            if idx == n:
                if norm_left == 0 and sum_left == 0:
                    out.append(tuple(chosen))
                    if len(out) > cap:
                        raise SearchCapExceeded(
                            f"more than {cap} column candidates at level {level}"
                        )
                return
            k = n - idx - 1  # coordinates after this one
            for x in options[idx]:
                nl = norm_left - x * x
                if nl < 0:
                    continue
                sl = sum_left - x
                # Cauchy-Schwarz: remaining sum needs sl^2 <= k * remaining norm
                if sl * sl > k * nl:
                    continue
                chosen[idx] = x
                rec(idx + 1, nl, sl)

        rec(0, lvl2, level)

    # iterate kernel residues y, map to v = V y mod level
    idx = [0] * n
    while True:
        y = [(j, idx[j] * (level // gcds[j])) for j in range(n) if idx[j]]
        residue = tuple(sum(row[j] * yj for j, yj in y) % level for row in v)
        box_walk(residue)
        for i in range(n):
            idx[i] += 1
            if idx[i] < gcds[i]:
                break
            idx[i] = 0
        else:
            break

    out.sort()
    return out


def _assemble_clique(cands, a_cands, n, lvl2, node_cap):
    """Bitset n-clique enumeration over the precomputed compatibility graph.

    Columns i < j are compatible when u.v = 0 and (A u).v is 0 or l^2.
    """
    m = len(cands)
    masks = [0] * m
    for i in range(m):
        u, au = cands[i], a_cands[i]
        mask = 0
        for j in range(i + 1, m):
            v = cands[j]
            if sum(map(mul, u, v)) == 0 and sum(map(mul, au, v)) in (0, lvl2):
                mask |= 1 << j
        masks[i] = mask
    results = []
    nodes = 0

    def rec(chosen: list[int], allowed: int):
        nonlocal nodes
        if len(chosen) == n:
            results.append(tuple(chosen))
            return
        if len(chosen) + allowed.bit_count() < n:
            return
        rest = allowed
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            nodes += 1
            if nodes > node_cap:
                raise SearchCapExceeded(f"assembly explored more than {node_cap} nodes")
            chosen.append(j)
            rec(chosen, allowed & masks[j] & ~((1 << (j + 1)) - 1))
            chosen.pop()

    rec([], (1 << m) - 1)
    return results


def search_mates(
    prof: WalkProfile,
    levels: list[int] | tuple[int, ...],
    *,
    node_cap: int = NODE_CAP,
) -> list[MateClass]:
    """All admissible matrices of the profile's graph g with level in
    ``levels``, one per right-permutation class, each verified and paired
    with its mate graph.

    A matrix assembled at level l whose entries share a factor with l is a
    lower-level matrix in disguise and is skipped; it shows up (exactly
    once) when its true level is searched. An uncontrollable g (det W = 0)
    raises ValueError: the uniqueness of Q, which ``MateClass`` relies on,
    needs W nonsingular.
    """
    if not prof.controllable:
        raise ValueError("graph is not controllable")
    g = prof.graph
    a = g.adjacency()
    n = g.n
    classes: list[MateClass] = []
    for level in sorted(set(int(x) for x in levels)):
        lvl2 = level * level
        cands, a_cands = [], []
        for v in enumerate_columns(prof, level):
            av = a.mat_vec(v)
            if dot(av, v) == 0:
                cands.append(v)
                a_cands.append(av)
        if len(cands) < n:
            continue
        # cliques are increasing index tuples over distinct columns, so no
        # two of one level share a canonical key and none needs a dedupe
        for pick in _assemble_clique(cands, a_cands, n, lvl2, node_cap):
            num = IntMatrix.from_columns([cands[j] for j in pick])
            shared = gcd(level, *(x for x in num.entries))
            if shared != 1:
                continue  # true level is level/shared; found in its own pass
            q = RatRegOrtho(num, level)
            classes.append(MateClass(q, conjugate(q, g)))
    return classes


def distinct_mate_graphs(classes: list[MateClass]) -> list[Graph]:
    """The non-isomorphic mate graphs among classes not isomorphic to the input.

    For a controllable graph the Q with Q^T A Q = A(H) is unique, so H is
    isomorphic to G exactly when Q is a permutation (level 1), and two
    classes give isomorphic mates exactly when they are the same
    right-permutation class. One mate per canonical key above level 1 is
    therefore one per isomorphism class, with no isomorphism test; the
    first class of each key supplies the mate.
    """
    mates: dict = {}
    for cls in classes:
        if cls.level > 1:
            mates.setdefault(cls.q.canonical_key(), cls.mate)
    return list(mates.values())
