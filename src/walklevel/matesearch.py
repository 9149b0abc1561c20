"""Complete desk-scale enumeration of the admissible orthogonal matrices.

Every scaled column v of an admissible matrix at level l must satisfy the
lattice conditions

    v.v = l^2,   e.v = l,   W^T v = 0 (mod l),

so the search first enumerates that finite candidate set exactly, and then
assembles full matrices from pairwise compatible columns

    v_i . v_j = 0,   v_i^T A v_j in {0, l^2},   v_i^T A v_i = 0.

Columns. The congruence confines v mod l to ker(W^T mod l), whose
generators ``snf._kernel_mod`` gives. The two equations then fix the
shape of v given its residue r (entries in [0, l)). v.v = l^2 bounds every
|v_i| by l, and an entry +-l forces v = l e_i, so residue 0 gives exactly
the n units l e_i. For r != 0, v = r - l 1_S with S a subset of supp(r);
e.v = l gives |S| = k = e.r/l - 1, and v.v = l^2 gives the sum of r over S
as T = (r.r + l^2 (k - 1)) / (2l). A residue with k > |supp r| or with 2l
not dividing r.r + l^2 (k - 1) has no column and costs O(n); the others run
a subset sum of fixed size k over supp(r).

Assembly. The units are pairwise compatible, so the search runs over the
non-unit candidates only, as bitset cliques, and completes each clique C
with the units it forces: with K(C) the units compatible with all of C,
C's columns are nonzero, pairwise orthogonal and vanish on K(C), so
|C| + |K(C)| <= n, and C extends to a matrix exactly when equality holds,
by the units K(C). Each matrix comes out as the increasing index tuple of
its columns in the sorted candidate list, which picks exactly one
representative from each right-permutation class {Q P}; the tests
cross-check the assembly against the full compatibility graph's n-cliques
and against plain backtracking.

Both stages take the graph's walk profile alone and read G, W and n off
it. A class is its Q and the mate Q^T A Q. For a controllable graph Q is
unique, so everything else a class states is read off Q: its level is Q's
denominator, and the mate is isomorphic to the input exactly when that
level is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from math import gcd, prod
from operator import mul

from .errors import SearchCapExceeded
from .graphs import Graph, WalkProfile
from .intmat import IntMatrix
from .ortho import RatRegOrtho, conjugate
from .snf import _kernel_mod

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


def enumerate_columns(prof: WalkProfile, level: int) -> list[tuple[int, ...]]:
    """All integer vectors v with v.v = level^2, e.v = level, W^T v = 0 mod level.

    Residues mod level run over ker(W^T mod level), one generator
    (``snf._kernel_mod``) added per step.

    Residue 0 gives exactly the n units level * e_i, and each other residue
    r gives the columns r - level * 1_S with |S| = k and sum of r over S
    equal to T (``_residue_columns``); a residue whose k or T is impossible
    is dropped after O(n) work. The result is lexicographically sorted and
    complete, for singular W too.
    """
    if level < 1:
        raise ValueError("level must be positive")
    n = prof.n

    # the orders multiply to the product of gcd(d_i, level) over W's factors
    gens = sorted(_kernel_mod(prof.W.T.data, n, level), reverse=True)
    radices = [order for order, _ in gens]
    if prod(radices) > CANDIDATE_CAP:
        raise SearchCapExceeded(
            f"kernel of W^T mod {level} has more than {CANDIDATE_CAP} residue classes")

    out = [tuple(level if i == j else 0 for i in range(n)) for j in range(n)]
    if len(out) > CANDIDATE_CAP:
        raise SearchCapExceeded(f"more than {CANDIDATE_CAP} column candidates at level {level}")
    # odometer, one digit per generator, the largest order turning fastest
    # so that most steps stop at digit 0. Advancing digit d adds its
    # generator and wraps the digits before it, each wrap adding one more
    # generator (g of them are 0 mod level), so every step adds the
    # precomputed sum of the generators of digits 0..d.
    steps = list(accumulate((gen for _, gen in gens),
                            lambda acc, gen: [(a + b) % level for a, b in zip(acc, gen)]))
    digits = [0] * len(radices)
    residue = [0] * n
    while True:
        for j, gj in enumerate(radices):
            digits[j] += 1
            if digits[j] < gj:
                break
            digits[j] = 0
        else:
            break
        residue = [(a + b) % level for a, b in zip(residue, steps[j])]
        _residue_columns(residue, level, out)
    out.sort()
    return out


def _residue_columns(residue: list[int], level: int, out: list) -> None:
    """Append to ``out`` every column with the nonzero residue r mod level.

    v.v = l^2 gives |v_i| <= l, and an entry +-l would force v = l e_i,
    whose residue is 0. So each v_i is r_i or r_i - l, v_i = 0 where
    r_i = 0, and v = r - l 1_S for some S in supp(r). Then e.v = l gives
    |S| = k = e.r/l - 1 (k >= 0, as e.r > 0), and v.v = l^2 gives the sum
    of r over S as T = (r.r + l^2 (k - 1)) / (2l). A residue with l not
    dividing e.r, k > |supp r| or 2l not dividing r.r + l^2 (k - 1) has no
    column. Otherwise S runs over the k-subsets of supp(r) with sum T,
    values sorted ascending: the sums of the ``need`` smallest and largest
    values left bound what a branch can still reach. Raises
    SearchCapExceeded once ``out`` holds more than ``CANDIDATE_CAP`` columns.
    """
    total = sum(residue)
    if total % level:
        return
    k = total // level - 1
    m = len(residue) - residue.count(0)
    two_l_t = sum(map(mul, residue, residue)) + level * level * (k - 1)
    if k > m or two_l_t % (2 * level):
        return
    support = sorted((x, i) for i, x in enumerate(residue) if x)
    vals = [x for x, _ in support]
    prefix = [0, *accumulate(vals)]
    chosen: list[int] = []

    def rec(start: int, need: int, target: int) -> None:
        if need == 0:
            if target == 0:
                col = list(residue)
                for a in chosen:
                    col[support[a][1]] -= level
                out.append(tuple(col))
                if len(out) > CANDIDATE_CAP:
                    raise SearchCapExceeded(
                        f"more than {CANDIDATE_CAP} column candidates at level {level}"
                    )
            return
        if prefix[m] - prefix[m - need] < target:
            return  # even the largest values left fall short
        for a in range(start, m - need + 1):
            if prefix[a + need] - prefix[a] > target:
                break  # the smallest values from a on already overshoot
            chosen.append(a)
            rec(a + 1, need - 1, target - vals[a])
            chosen.pop()

    rec(0, k, two_l_t // (2 * level))


def search_mates(prof: WalkProfile, levels: list[int] | tuple[int, ...]) -> list[MateClass]:
    """All admissible matrices of the profile's graph g with level in
    ``levels``, one per right-permutation class, each verified and paired
    with its mate graph.

    Columns u, v are compatible when u.v = 0 and (A u).v is 0 or l^2, and
    a class is n pairwise compatible candidates. The units l e_a are always
    candidates and pairwise compatible, so the search runs over the
    non-unit candidates only: each non-unit v carries the mask of units it
    is compatible with (v_a = 0 and (A v)_a in {0, l}), and a clique C of
    non-units has K(C), the AND of its masks. C's columns are nonzero,
    pairwise orthogonal and vanish on K(C), so |C| + |K(C)| <= n: C gives
    a class exactly when |C| + |K(C)| = n, with the units K(C) forced.
    Each class is the sorted index tuple of its columns in the sorted
    candidate list, and the classes come out in the order of those tuples.

    A matrix assembled at level l whose entries share a factor with l is a
    lower-level matrix in disguise and is skipped; it shows up (exactly
    once) when its true level is searched. An uncontrollable g (det W = 0)
    raises ValueError: the uniqueness of Q, which ``MateClass`` relies on,
    needs W nonsingular.
    """
    if not prof.controllable:
        raise ValueError("graph is not controllable")
    g = prof.graph
    classes: list[MateClass] = []
    for level in sorted(set(int(x) for x in levels)):
        # picks are increasing index tuples over distinct columns, so no
        # two of one level share a canonical key and none needs a dedupe
        cands, picks = _picks(prof, level)
        for pick in picks:
            num = IntMatrix.from_columns([cands[j] for j in pick])
            shared = gcd(level, *(x for x in num.entries))
            if shared != 1:
                continue  # true level is level/shared; found in its own pass
            q = RatRegOrtho(num, level)
            classes.append(MateClass(q, conjugate(q, g)))
    return classes


def _picks(prof: WalkProfile, level: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The candidates at one level (the columns v with v^T A v = 0), and the
    sorted index tuples into them of every class, in sorted order.

    Bitset cliques C over the non-unit candidates are searched in
    increasing index order, and each C with |C| + |K(C)| = n is completed
    by the units K(C).
    """
    g = prof.graph
    n = g.n
    lvl2 = level * level
    cands, unit_at, others, a_others = [], [0] * n, [], []
    for v in enumerate_columns(prof, level):
        if level in v:  # the unit level * e_a
            unit_at[v.index(level)] = len(cands)
            cands.append(v)
            continue
        av = [sum(compress(v, row)) for row in g.adj]
        if sum(map(mul, av, v)) == 0:
            others.append(len(cands))
            a_others.append(av)
            cands.append(v)
    if len(cands) < n:
        return cands, []
    cols = [cands[i] for i in others]
    m = len(cols)
    masks, units = [0] * m, [0] * m
    for i, (u, au) in enumerate(zip(cols, a_others)):
        mask = 0
        for j in range(i + 1, m):
            v = cols[j]
            if sum(map(mul, u, v)) == 0 and sum(map(mul, au, v)) in (0, lvl2):
                mask |= 1 << j
        masks[i] = mask
        units[i] = sum(1 << a for a in range(n) if u[a] == 0 and au[a] in (0, level))
    picks = []
    nodes = 0

    def rec(chosen: list[int], allowed: int, free: int):
        nonlocal nodes
        size = len(chosen) + free.bit_count()
        if size == n:
            picks.append(tuple(sorted(
                [others[i] for i in chosen]
                + [unit_at[a] for a in range(n) if free >> a & 1])))
        if size + allowed.bit_count() < n:
            return  # no extension reaches n: K only shrinks
        rest = allowed
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            nodes += 1
            if nodes > NODE_CAP:
                raise SearchCapExceeded(f"assembly explored more than {NODE_CAP} nodes")
            chosen.append(j)
            rec(chosen, allowed & masks[j] & ~((1 << (j + 1)) - 1), free & units[j])
            chosen.pop()

    rec([], (1 << m) - 1, (1 << n) - 1)
    picks.sort()
    return cands, picks


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
