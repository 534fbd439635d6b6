"""Exhaustive generation at desk scale: biquandle structures on trivial
quandles, small quandle tables, and isomorphism testing.

Structure enumeration is a depth-first search over (b_0, b_1, ...) in
index order that checks every equation b_{b_y(x)} b_y = b_{b_x(y)} b_x as
soon as its four indices are assigned.  It also forces: when exactly one of
t_x = b_y(x) and t_y = b_x(y) is still unassigned, the equation fixes that
b outright (b_{t_y} = b_{t_x} b_y b_x^-1, or the mirror form).  A node is
dead when two equations force different values on one index, or when
t_x = t_y is unassigned while b_x != b_y; otherwise the next level opens
with its forced value alone when it has one.  Everything skipped this way
would fail an equation once assigned, so the output and its order are those
of the plain search.  The straightforward generate-and-filter path lives in
the test suite as an independent oracle.
"""

from __future__ import annotations

import numpy as np

from ._search import _classes, first_bijection
from .core import FiniteBiquandle, FiniteQuandle, Permutation, is_connected, row_keys
from .errors import DomainError
from .group_constructions import trivial_quandle
from .groups import _permutation_rows, _symmetric_group
from .structures import BiquandleStructure, validate_structure

DEFAULT_ENUM_CAP = 5
# the largest n each enumeration runs at, whatever cap says: quandles of
# order 6 (6,658 tables) take about 8 s and order 7 was never run; trivial
# structures of order 5 (2,640) take about 2 s and order 6 was never run
MAX_QUANDLE_ORDER = 6
MAX_STRUCTURE_ORDER = 5


def _check_size(n, cap, ceiling, detail=""):
    """Refuse n below 1, above the fixed ceiling, or above cap, before any
    search starts."""
    if n < 1:
        raise DomainError("need n >= 1")
    if n > ceiling:
        raise DomainError(f"n={n} exceeds the enumeration ceiling {ceiling}, which no cap raises")
    if n > cap:
        raise DomainError(f"n={n} exceeds enumeration cap {cap}{detail}")


def trivial_structure_tuples(n):
    """Permutation-index tuples (b_0..b_{n-1}) forming a structure on the
    trivial quandle: b_{b_y(x)} b_y == b_{b_x(y)} b_x and y -> b_y(y) is a
    bijection.  Lexicographic order over the sorted permutation list."""
    perms, comp, inv = _symmetric_group(n)  # perms[p][x] = p(x)
    m = len(perms)
    out = []
    assign = [0] * n

    def opened(j):
        # the choice iterator of level j + 1 once b_0..b_j are fixed: none
        # when they break an equation or the diagonal, or at a full
        # assignment; the value the equations force on b_{j+1} alone when
        # they force one, else all m
        if len({perms[assign[y]][y] for y in range(j + 1)}) <= j:
            return []
        forced = {}
        for y in range(j + 1):
            by = assign[y]
            for x in range(y):
                bx = assign[x]
                tx, ty = perms[by][x], perms[bx][y]
                if tx <= j and ty <= j:
                    if comp[assign[tx]][by] != comp[assign[ty]][bx]:
                        return []
                    continue
                if tx <= j:  # b_ty = b_tx b_y b_x^-1
                    k, v = ty, comp[comp[assign[tx]][by]][inv[bx]]
                elif ty <= j:  # b_tx = b_ty b_x b_y^-1
                    k, v = tx, comp[comp[assign[ty]][bx]][inv[by]]
                elif tx == ty and bx != by:  # b_k b_y = b_k b_x has no b_k
                    return []
                else:
                    continue
                if forced.setdefault(k, v) != v:
                    return []
        if j + 1 == n:
            out.append(tuple(assign))
            return []
        return [iter([forced[j + 1]] if j + 1 in forced else range(m))]

    # depth-first on an explicit stack, one choice iterator per open level;
    # levels are filled in index order, so b_i is assigned iff i <= j
    stack = opened(-1)
    while stack:
        j = len(stack) - 1
        p = next(stack[j], None)
        if p is None:
            stack.pop()
            continue
        assign[j] = p
        stack += opened(j)
    return [tuple(perms[i] for i in tup) for tup in out]


def enumerate_trivial_structures(n, cap=DEFAULT_ENUM_CAP):
    """All biquandle structures on the trivial quandle with n elements, in
    deterministic lexicographic order.

    The search space is |S_n|^n tuples; n=4 takes milliseconds (168
    structures), n=5 under two seconds (2640 structures).  n above
    MAX_STRUCTURE_ORDER is refused whatever cap says."""
    _check_size(n, cap, MAX_STRUCTURE_ORDER, " (|S_n|^n search space)")
    base = trivial_quandle(n)
    # trivial_structure_tuples has proved each tuple a structure of
    # permutations, so neither is checked again
    return [
        BiquandleStructure._proven(base, tuple(Permutation._proven(p) for p in tup))
        for tup in trivial_structure_tuples(n)
    ]


def relabeling_orbits(structures):
    """Group structures by simultaneous conjugation: relabeling by s sends
    the family (b_y) to (s b_{s^{-1}(y)} s^{-1}).  Returns orbits as lists
    of indices into the input, each sorted, ordered by first member.  A
    family is relabeled by all of S_n in one gather on its image rows."""
    if not structures:
        return []
    n = structures[0].base.n
    fams = np.array([[b.images for b in s.betas] for s in structures], dtype=np.int64).reshape(len(structures), n * n)
    key = dict(zip(row_keys(fams), range(len(fams))))
    perms = _permutation_rows(n)
    inv = np.argsort(perms, axis=1)
    # relabeled[s, y, x] = s(b_{s^-1(y)}(s^-1(x))), read from flat offsets
    at = np.arange(len(perms))[:, None, None] * n
    pick = inv[:, :, None] * n + inv[:, None, :]
    seen = np.zeros(len(fams), dtype=bool)
    orbit_list = []
    for i, fam in enumerate(fams):
        if seen[i]:
            continue
        relabeled = perms.ravel().take(at + fam.take(pick)).reshape(len(perms), n * n)
        found = [key.get(k) for k in row_keys(relabeled)]
        if None in found:
            raise DomainError("structure set is not closed under relabeling")
        orb = sorted(set(found))
        seen[orb] = True
        orbit_list.append(orb)
    return orbit_list


def lift_structure_to_free_base_check(structure: BiquandleStructure) -> bool:
    """Whether a structure on the trivial quandle T_n induces a structure on
    the free-quandle term model, decided exactly.

    beta_y acts on a pair (i, w), w a reduced word not starting with i, by
    renaming letters with p = beta_y: (i, w) -> (p(i), p(w)), again such a
    pair.  Two such actions agree iff they agree on the generators (i, ()),
    so condition 1 on the model is b_{b_j(i)} b_j == b_{b_i(j)} b_i and
    condition 2 is that i -> b_i(i) is injective: the structure conditions
    on T_n, and the verdict is the same at every truncation of the model.
    """
    base = structure.base
    if not (base.table == np.arange(base.n)[:, None]).all():
        raise DomainError("base must be the trivial quandle")
    return validate_structure(base, structure.betas).passed


# ---------------------------------------------------------------------------
# raw quandle tables


def enumerate_quandles(n, cap=DEFAULT_ENUM_CAP):
    """Every quandle table on {0..n-1}, by column backtracking.

    Columns are permutations fixing their own index, filled in index order.
    Each assigned column is kept as its tuple (T[b][a] = a*b) and its index
    P[b] in the sorted permutation list.  Once column j is placed,
    self-distributivity is checked on exactly the triples (a, b, c) whose
    last needed column is j: b*c assigned, and j among b, c and b*c.  For
    all a at once that is S_c S_b == S_{b*c} S_c, two lookups in the
    composition table of the permutation indices.  Output is sorted by
    flattened table.  n = 5 (404 tables) searches in a few hundredths of a
    second; n = 6 (6,658) takes about 8 s, so the cap stays 5, and n
    above MAX_QUANDLE_ORDER is refused whatever cap says."""
    _check_size(n, cap, MAX_QUANDLE_ORDER)
    perms, comp, _ = _symmetric_group(n)
    cols = {b: [(p, i) for i, p in enumerate(perms) if p[b] == b] for b in range(n)}
    T = [None] * n  # column b as a tuple, None while unassigned
    P = [None] * n  # its index in perms
    out = []

    def ok_after(j):
        # the pairs (b, c) with b, c, b*c <= j and j among them: b == j, or
        # c == j, or b, c < j with b*c == j, so b is the preimage of j under
        # column c; each is S_c S_b == S_{b*c} S_c, which holds for b == c
        Tj, Pj = T[j], P[j]
        for c in range(j):
            bc = T[c][j]
            if bc <= j and comp[P[c]][Pj] != comp[P[bc]][P[c]]:
                return False
        for b in range(j):
            bc = Tj[b]
            if bc <= j and comp[Pj][P[b]] != comp[P[bc]][Pj]:
                return False
        for c in range(j):
            b = T[c].index(j)
            if b < j and comp[P[c]][P[b]] != comp[Pj][P[c]]:
                return False
        return True

    def opened(j):
        # the column iterator of level j, or none at a full table
        if j == n:
            out.append(np.array(T, dtype=np.int64).T)
            return []
        return [iter(cols[j])]

    # depth-first on an explicit stack, one column iterator per open level
    stack = opened(0)
    while stack:
        j = len(stack) - 1
        col = next(stack[j], None)
        if col is None:
            T[j] = P[j] = None
            stack.pop()
            continue
        T[j], P[j] = col
        if ok_after(j):
            stack += opened(j + 1)
    out.sort(key=lambda a: a.ravel().tolist())
    # the search has checked q1 (each column fixes its index), r1 and r2
    return [FiniteQuandle._proven(a) for a in out]


def count_connected(n, cap=DEFAULT_ENUM_CAP) -> int:
    return sum(1 for q in enumerate_quandles(n, cap) if is_connected(q))


def are_isomorphic(a, b):
    """Witness bijection preserving all tables, or None.

    Accepts a pair of quandles or a pair of biquandles.  Each object keeps
    one _search.Side of its tables, so classifying many objects pairwise
    takes one invariant pass per object, answers a pair whose invariant
    multisets differ without a search, and builds one closure plan per
    representative searched against.  The witness is the least
    table-preserving bijection."""
    if type(a) is not type(b) or not isinstance(a, (FiniteQuandle, FiniteBiquandle)):
        raise DomainError("arguments must be two quandles or two biquandles")
    if a.n != b.n:
        return None
    sa, sb = a._side(), b._side()
    if sa.multiset != sb.multiset:
        return None
    f = first_bijection(sa.witness_plan, sb.tables, _classes(sa.invariants, sb.invariants))
    return None if f is None else Permutation.from_array(f)
