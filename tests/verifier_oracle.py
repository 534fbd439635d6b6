"""The automorphism verifiers as sets of Permutation objects: the reference
the library's image-row verifiers are compared against.

Each function keeps the element-by-element construction the library used
before it moved to row arrays: predictions are built by Permutation
products and inverses, and group equality is equality of frozensets.
Only brute-force Aut comes from the library (quandle_aut, biquandle_aut,
find_quandle_isomorphism), as the library's own verifiers take it.
"""

import itertools

from biquandles.automorphisms import biquandle_aut, find_quandle_isomorphism, quandle_aut
from biquandles.combinators import (
    _check_cross_maps,
    _identity_maps,
    holomorph_biquandle,
    semidirect_biquandle,
    union_biquandle_constant,
    union_quandle,
)
from biquandles.core import Permutation, PermutationGroup, associated_quandle, is_connected, is_faithful, orbits
from biquandles.errors import DomainError
from biquandles.groups import automorphism_group, commute, fixed_points, is_fixed_point_free
from biquandles.group_constructions import gen_alexander_biquandle, gen_dihedral_biquandle, takasaki
from biquandles.structures import biquandle_from_structure, constant_structure
from biquandles._search import preserves_tables


def centralizer_of_set(autos, subset):
    """Members of an explicit automorphism list commuting with a subset."""
    subset = list(subset)
    return [a for a in autos if all(a * s == s * a for s in subset)]


def centralizer(g, f):
    if f not in g.elements:
        raise DomainError("f is not a member of the group")
    return PermutationGroup.from_elements(g.degree, centralizer_of_set(g, [f]))


def normalizes(p, fam):
    return {p * f * p.inverse() for f in fam} == fam


def normalizer_of_family(g, betas):
    fam = set(betas)
    return PermutationGroup.from_elements(g.degree, [p for p in g if normalizes(p, fam)])


def verify_constant_structure_aut(q, f):
    b = biquandle_from_structure(constant_structure(q, f))
    return biquandle_aut(b).elements == centralizer(quandle_aut(q), f).elements


def verify_gen_dihedral_containment(g, phi):
    if not g.is_abelian() or g.n % 2 == 0:
        raise DomainError("need an abelian group of odd order (no 2-torsion)")
    aut_t = quandle_aut(takasaki(g))
    if phi not in aut_t.elements:
        raise DomainError("phi does not induce an automorphism of the Takasaki quandle")
    b = gen_dihedral_biquandle(g, phi)
    return all(preserves_tables(c.images, [b.under, b.over]) for c in centralizer(aut_t, phi))


def verify_gen_alexander_aut(g, phi, psi):
    if not g.is_abelian():
        raise DomainError("need an abelian group")
    if not commute(phi, psi):
        raise DomainError("phi and psi must commute")
    if not is_fixed_point_free(g, psi.inverse() * phi):
        raise DomainError("psi^{-1} phi must be fixed-point free")
    brute = biquandle_aut(gen_alexander_biquandle(g, phi, psi))
    fix = fixed_points(g, psi)
    cent = set(centralizer_of_set(automorphism_group(g), [phi, psi]))
    if brute.order != len(fix) * len(cent):
        return False
    for f in brute.elements:
        tr = f(g.e)
        if tr not in fix:
            return False
        if Permutation(tuple(g.op(g.inverse(tr), f(x)) for x in range(g.n))) not in cent:
            return False
    return True


def block_permutation(p1, p2):
    """(p1, p2) acting on the disjoint union, second part offset."""
    return Permutation(tuple(p1.images) + tuple(p1.n + i for i in p2.images))


def swap_map(alpha, n1, n2):
    """x -> alpha(x)+n1 on the first part, alpha^{-1}(x-n1) on the second."""
    ainv = alpha.inverse()
    return Permutation(tuple(n1 + alpha(x) for x in range(n1)) + tuple(ainv(x) for x in range(n2)))


def union_quandle_aut(q1, q2):
    """(brute group, isomorphic, verified)."""
    if not (is_connected(q1) and is_connected(q2)):
        raise DomainError("both parts must be connected")
    brute = quandle_aut(union_quandle(q1, q2))
    blocks = {block_permutation(p, r) for p in quandle_aut(q1).elements for r in quandle_aut(q2).elements}
    alpha = find_quandle_isomorphism(q1, q2)
    if alpha is None:
        predicted = blocks
    else:
        iota = swap_map(alpha, q1.n, q2.n)
        predicted = blocks | {iota * b for b in blocks}
    return brute, alpha is not None, brute.elements == frozenset(predicted)


def verify_union_biquandle_aut(q1, q2, f1, f2):
    if not (is_connected(q1) and is_connected(q2)):
        raise DomainError("both parts must be connected")
    brute = biquandle_aut(union_biquandle_constant(q1, q2, f1, f2))
    a1 = quandle_aut(q1)
    c1 = centralizer(a1, f1)
    c2 = centralizer(quandle_aut(q2), f2)
    blocks = {block_permutation(p, r) for p in c1.elements for r in c2.elements}
    alpha = find_quandle_isomorphism(q1, q2)
    if alpha is None:
        return 1, brute.elements == frozenset(blocks)
    conj = alpha.inverse() * f2 * alpha
    psi = next((p for p in a1 if p.inverse() * f1 * p == conj), None)
    if psi is None:
        return 2, brute.elements == frozenset(blocks)
    iota1 = swap_map(alpha * psi.inverse(), q1.n, q2.n)
    return 3, brute.elements == frozenset(blocks | {iota1 * p for p in blocks})


def aut_psi_pairs(q1, q2, psi):
    P = _check_cross_maps(q1, q2, _identity_maps(q1.n, q2.n), psi)[1]
    psi_f = [Permutation.from_array(r) for r in P]
    out = []
    for a in quandle_aut(q1):
        for b in quandle_aut(q2):
            if all(psi_f[b(f)] == a * psi_f[f] * a.inverse() for f in range(q2.n)):
                out.append((a, b))
    return out


def product_perm(a, b, n2):
    return Permutation(tuple(a(x) * n2 + b(f) for x in range(a.n) for f in range(n2)))


def aut_psi_subgroup(q1, q2, psi):
    els = [product_perm(a, b, q2.n) for a, b in aut_psi_pairs(q1, q2, psi)]
    return PermutationGroup.from_elements(q1.n * q2.n, els)


def psi_inn_centralizer(q1, psi):
    gens = set(psi) | {q1.sx(x) for x in range(q1.n)}
    return centralizer_of_set(quandle_aut(q1), gens)


def product_H_subgroup(q1, q2, psi):
    psi = tuple(psi)
    b = semidirect_biquandle(q1, q2, psi)
    pairs = aut_psi_pairs(q1, q2, psi)
    cent = psi_inn_centralizer(q1, psi)
    orbs = orbits(q2)
    chi = {f: i for i, orb in enumerate(orbs) for f in orb}
    els = set()
    for a, bb in pairs:
        for deltas in itertools.product(cent, repeat=len(orbs)):
            p = Permutation(tuple(a(deltas[chi[f]](x)) * q2.n + bb(f) for x in range(q1.n) for f in range(q2.n)))
            if p not in els:
                if not preserves_tables(p.images, [b.under, b.over]):
                    raise DomainError(f"predicted map is not an automorphism: {p.images}")
                els.add(p)
    return PermutationGroup.from_elements(q1.n * q2.n, els)


def verify_product_aut_theorem(q1, q2, psi):
    psi = tuple(psi)
    if not is_connected(q1):
        raise DomainError("Q1 must be connected")
    if not any(p.is_identity() for p in psi):
        raise DomainError("psi(Q2) must contain the identity")
    brute = biquandle_aut(semidirect_biquandle(q1, q2, psi))
    return brute.elements == product_H_subgroup(q1, q2, psi).elements


def verify_sequence_cardinality(q1, q2, psi):
    psi = tuple(psi)
    autpsi = aut_psi_pairs(q1, q2, psi)
    cent = psi_inn_centralizer(q1, psi)
    k = len(orbits(q2))
    h = product_H_subgroup(q1, q2, psi)
    ok = len(cent) ** k * len(autpsi) == len(cent) * h.order
    first = set(orbits(q2)[0])
    if all({b(f) for f in first} == first for b in quandle_aut(q2)):
        ok = ok and h.order == len(cent) ** (k - 1) * len(autpsi)
    return ok


def verify_holomorph_aut(q):
    if not (is_faithful(q) and is_connected(q)):
        raise DomainError("need a faithful connected quandle")
    hol = holomorph_biquandle(q)
    aut = sorted(quandle_aut(q).elements)
    index = {f: i for i, f in enumerate(aut)}
    m = len(aut)
    predicted = {
        Permutation(tuple(a(x) * m + index[a * f * a.inverse()] for x in range(q.n) for f in aut)) for a in aut
    }
    return biquandle_aut(hol).elements == frozenset(predicted)


def over_family(b):
    return {Permutation(tuple(int(v) for v in b.over[:, y])) for y in range(b.n)}


def verify_structure_normalizer(b):
    aq = quandle_aut(associated_quandle(b)).elements
    fam = over_family(b)
    return all(p in aq and normalizes(p, fam) for p in biquandle_aut(b))


def verify_structure_normalizer_printed(b):
    fam = over_family(b)
    return all(normalizes(p, fam) for p in quandle_aut(associated_quandle(b)))
