"""Automorphism groups of quandles and biquandles, subgroup constructions,
and brute-force verifiers for the structural theorems about them.

Group equality between computed and predicted groups always means equality
of element sets inside the same symmetric group.  Semidirect-product claims
are checked as cardinality + normality + trivial intersection + generation,
never as abstract isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import preserves_tables, table_bijections
from .combinators import _check_cross_maps, _identity_maps, semidirect_biquandle, union_biquandle_constant, union_quandle
from .core import (
    FiniteBiquandle,
    FiniteQuandle,
    Permutation,
    PermutationGroup,
    associated_quandle,
    is_connected,
    is_faithful,
    orbits,
)
from .enumeration import are_isomorphic
from .errors import DomainError
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    automorphism_group,
    centralizer_of_set,
    commute,
    fixed_points,
    is_fixed_point_free,
)
from .group_constructions import gen_alexander_biquandle, gen_dihedral_biquandle, takasaki
from .structures import biquandle_from_structure, constant_structure


def quandle_aut(q: FiniteQuandle) -> PermutationGroup:
    """All table-preserving bijections, by pruned backtracking."""
    return PermutationGroup.from_elements(q.n, table_bijections([q.table]))


def biquandle_aut(b: FiniteBiquandle) -> PermutationGroup:
    """All bijections preserving both tables."""
    return PermutationGroup.from_elements(b.n, table_bijections([b.under, b.over]))


def find_quandle_isomorphism(q1: FiniteQuandle, q2: FiniteQuandle):
    """A table-preserving bijection Q1 -> Q2, or None."""
    return are_isomorphic(q1, q2)


def centralizer(g: PermutationGroup, f: Permutation) -> PermutationGroup:
    if f not in g:
        raise DomainError("f is not a member of the group")
    return PermutationGroup.from_elements(g.degree, centralizer_of_set(g, [f]))


def normalizes(p: Permutation, fam: set) -> bool:
    """Whether conjugation by p maps the set fam onto itself."""
    return {p * f * p.inverse() for f in fam} == fam


def normalizer_of_family(g: PermutationGroup, betas) -> PermutationGroup:
    """Members conjugating the family onto itself as a set."""
    fam = set(betas)
    els = [p for p in g if normalizes(p, fam)]
    return PermutationGroup.from_elements(g.degree, els)


def verify_constant_structure_aut(q: FiniteQuandle, f: Permutation) -> bool:
    """Aut of the constant-structure biquandle equals the centralizer of f
    inside Aut(Q), as permutation sets."""
    b = biquandle_from_structure(constant_structure(q, f))
    brute = biquandle_aut(b)
    pred = centralizer(quandle_aut(q), f)
    return brute.same_elements(pred)


def verify_gen_dihedral_containment(g: FiniteGroup, phi: GroupAutomorphism) -> bool:
    """Every automorphism of the Takasaki quandle commuting with phi
    preserves both tables of the twisted-core biquandle."""
    if not g.is_abelian() or g.n % 2 == 0:
        raise DomainError("need an abelian group of odd order (no 2-torsion)")
    t = takasaki(g)
    aut_t = quandle_aut(t)
    if phi not in aut_t:
        raise DomainError("phi does not induce an automorphism of the Takasaki quandle")
    b = gen_dihedral_biquandle(g, phi)
    cent = centralizer(aut_t, phi)
    return all(preserves_tables(c.images, [b.under, b.over]) for c in cent)


def verify_gen_alexander_aut(g: FiniteGroup, phi: GroupAutomorphism, psi: GroupAutomorphism) -> bool:
    """|Aut| = |Fix(psi)| * |C_{Aut(G)}(phi, psi)| and every automorphism
    factors as a Fix(psi)-translation composed with a commuting group
    automorphism."""
    if not g.is_abelian():
        raise DomainError("need an abelian group")
    if not commute(phi, psi):
        raise DomainError("phi and psi must commute")
    if not is_fixed_point_free(g, psi.inverse() * phi):
        raise DomainError("psi^{-1} phi must be fixed-point free")
    b = gen_alexander_biquandle(g, phi, psi)
    brute = biquandle_aut(b)
    fix = fixed_points(g, psi)
    cent = centralizer_of_set(automorphism_group(g), [phi, psi])
    if brute.order != len(fix) * len(cent):
        return False
    cent_set = set(cent)
    for f in brute:
        tr = f(g.e)
        if tr not in fix:
            return False
        # peel the translation: a(x) = tr^{-1} f(x)
        a = GroupAutomorphism(tuple(g.op(g.inverse(tr), f(x)) for x in range(g.n)))
        if a not in cent_set:
            return False
    return True


def block_permutation(p1: Permutation, p2: Permutation) -> Permutation:
    """(p1, p2) acting on the disjoint union, second part offset."""
    n1 = p1.n
    return Permutation(tuple(p1.images) + tuple(n1 + i for i in p2.images))


def _swap_map(alpha: Permutation, n1: int, n2: int) -> Permutation:
    """x -> alpha(x)+n1 on the first part, alpha^{-1}(x-n1) on the second."""
    ainv = alpha.inverse()
    return Permutation(tuple(n1 + alpha(x) for x in range(n1)) + tuple(ainv(x) for x in range(n2)))


@dataclass(frozen=True)
class UnionAutResult:
    group: PermutationGroup
    isomorphic: bool
    verified: bool


def union_quandle_aut(q1: FiniteQuandle, q2: FiniteQuandle) -> UnionAutResult:
    """Brute-force Aut(Q1 u Q2) for connected parts, checked against the
    block decomposition (extended by the swap when the parts are
    isomorphic)."""
    if not (is_connected(q1) and is_connected(q2)):
        raise DomainError("both parts must be connected")
    u = union_quandle(q1, q2)
    brute = quandle_aut(u)
    a1 = quandle_aut(q1)
    a2 = quandle_aut(q2)
    blocks = {block_permutation(p, r) for p in a1 for r in a2}
    alpha = find_quandle_isomorphism(q1, q2)
    if alpha is None:
        predicted = blocks
    else:
        iota = _swap_map(alpha, q1.n, q2.n)
        predicted = blocks | {iota * b for b in blocks}
    verified = brute.elements == frozenset(predicted)
    return UnionAutResult(group=brute, isomorphic=alpha is not None, verified=verified)


def verify_union_biquandle_aut(q1, q2, f1: Permutation, f2: Permutation):
    """Determine the case of the constant-union automorphism theorem and
    check brute-force Aut against the predicted group.

    Returns (case, flag) with case 1 = parts not isomorphic, 2 = isomorphic
    with non-conjugate twists, 3 = conjugate twists.
    """
    if not (is_connected(q1) and is_connected(q2)):
        raise DomainError("both parts must be connected")
    b = union_biquandle_constant(q1, q2, f1, f2)
    brute = biquandle_aut(b)
    a1 = quandle_aut(q1)
    a2 = quandle_aut(q2)
    c1 = centralizer(a1, f1)
    c2 = centralizer(a2, f2)
    blocks = {block_permutation(p, r) for p in c1 for r in c2}
    alpha = find_quandle_isomorphism(q1, q2)
    if alpha is None:
        return 1, brute.elements == frozenset(blocks)
    conj = alpha.inverse() * f2 * alpha
    psi = next((p for p in a1 if p.inverse() * f1 * p == conj), None)
    if psi is None:
        return 2, brute.elements == frozenset(blocks)
    iota1 = _swap_map(alpha * psi.inverse(), q1.n, q2.n)
    predicted = blocks | {iota1 * p for p in blocks}
    return 3, brute.elements == frozenset(predicted)


def aut_psi_pairs(q1: FiniteQuandle, q2: FiniteQuandle, psi):
    """Pairs (a, b) in Aut(Q1) x Aut(Q2) with psi_{b(f)} = a psi_f a^{-1}.

    psi is checked as semidirect_biquandle checks it, with the same error."""
    P = _check_cross_maps(q1, q2, _identity_maps(q1.n, q2.n), psi)[1]  # P[f] = psi_f
    aut2 = quandle_aut(q2)
    a2 = list(aut2)
    Pb = P[aut2.rows]  # Pb[j, f] = psi_{b_j(f)}
    out = []
    for a in quandle_aut(q1):
        # psi_{b(f)} a == a psi_f for every f, for all b at once
        img = a.array()
        good = (Pb[:, :, img] == img[P]).all(axis=(1, 2))
        out.extend((a, a2[j]) for j in np.flatnonzero(good).tolist())
    return out


def _product_perm(a: Permutation, b: Permutation, n2: int) -> Permutation:
    return Permutation(tuple(a(x) * n2 + b(f) for x in range(a.n) for f in range(n2)))


def aut_psi_subgroup(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> PermutationGroup:
    """The compatible-pairs subgroup acting on the product carrier."""
    pairs = aut_psi_pairs(q1, q2, psi)
    els = [_product_perm(a, b, q2.n) for a, b in pairs]
    return PermutationGroup.from_elements(q1.n * q2.n, els)


def _psi_inn_centralizer(q1: FiniteQuandle, psi):
    """C_{Aut(Q1)}(psi(Q2) u Inn(Q1)) as a sorted element list."""
    a1 = quandle_aut(q1)
    gens = set(psi) | {q1.sx(x) for x in range(q1.n)}
    return centralizer_of_set(a1, gens)


def product_H_subgroup(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> PermutationGroup:
    """All maps (x,f) -> (a d_{chi(f)}(x), b(f)) with (a,b) compatible and
    one centralizer element d per orbit of Q2; each is verified to preserve
    the semidirect biquandle and the family is verified to close."""
    import itertools

    psi = tuple(psi)
    b = semidirect_biquandle(q1, q2, psi)
    pairs = aut_psi_pairs(q1, q2, psi)
    cent = _psi_inn_centralizer(q1, psi)
    orbs = orbits(q2)
    chi = {}
    for i, orb in enumerate(orbs):
        for f in orb:
            chi[f] = i
    k = len(orbs)
    els = set()
    for a, bb in pairs:
        for deltas in itertools.product(cent, repeat=k):
            images = tuple(
                a(deltas[chi[f]](x)) * q2.n + bb(f) for x in range(q1.n) for f in range(q2.n)
            )
            p = Permutation(images)
            if p not in els:
                if not preserves_tables(p.images, [b.under, b.over]):
                    raise DomainError(f"predicted map is not an automorphism: {p.images}")
                els.add(p)
    return PermutationGroup.from_elements(q1.n * q2.n, els)


def verify_product_aut_theorem(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> bool:
    """Brute-force Aut of the semidirect biquandle equals the predicted
    subgroup, for connected Q1 and id in psi(Q2)."""
    psi = tuple(psi)
    if not is_connected(q1):
        raise DomainError("Q1 must be connected")
    if not any(p.is_identity() for p in psi):
        raise DomainError("psi(Q2) must contain the identity")
    brute = biquandle_aut(semidirect_biquandle(q1, q2, psi))
    h = product_H_subgroup(q1, q2, psi)
    return brute.same_elements(h)


def verify_sequence_cardinality(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> bool:
    """|C|^k * |Aut_psi| == |C| * |H|; when every automorphism of Q2 fixes
    the first orbit, additionally |H| == |C|^{k-1} * |Aut_psi|."""
    psi = tuple(psi)
    autpsi = aut_psi_pairs(q1, q2, psi)
    cent = _psi_inn_centralizer(q1, psi)
    k = len(orbits(q2))
    h = product_H_subgroup(q1, q2, psi)
    ok = len(cent) ** k * len(autpsi) == len(cent) * h.order
    first = set(orbits(q2)[0])
    a2 = quandle_aut(q2)
    if all({b(f) for f in first} == first for b in a2):
        ok = ok and h.order == len(cent) ** (k - 1) * len(autpsi)
    return ok


def verify_holomorph_aut(q: FiniteQuandle) -> bool:
    """Brute-force Aut(Hol(Q)) equals {(x,f) -> (a(x), a f a^{-1})}."""
    from .combinators import conj_quandle_of_permgroup, holomorph_biquandle

    if not (is_faithful(q) and is_connected(q)):
        raise DomainError("need a faithful connected quandle")
    hol = holomorph_biquandle(q)
    aut = quandle_aut(q)
    conj, _ = conj_quandle_of_permgroup(aut)
    # predicted[j, x, i]: the index of (a(x), a f_i a^{-1}) for a = f_j
    predicted = aut.rows[:, :, None] * aut.order + conj.table.T[:, None, :]
    return np.array_equal(biquandle_aut(hol).rows, np.unique(predicted.reshape(aut.order, hol.n), axis=0))


def verify_structure_normalizer(b: FiniteBiquandle) -> bool:
    """Aut(B) normalizes the over-column family inside Aut of the
    associated quandle."""
    q = associated_quandle(b)
    aq = quandle_aut(q)
    fam = {Permutation(tuple(int(v) for v in b.over[:, y])) for y in range(b.n)}
    ab = biquandle_aut(b)
    return all(p in aq and normalizes(p, fam) for p in ab)


def verify_structure_normalizer_printed(b: FiniteBiquandle) -> bool:
    """The stronger containment with all of Aut(Q) in place of Aut(B);
    informational only, and false in general."""
    q = associated_quandle(b)
    aq = quandle_aut(q)
    fam = {Permutation(tuple(int(v) for v in b.over[:, y])) for y in range(b.n)}
    return all(normalizes(p, fam) for p in aq)
