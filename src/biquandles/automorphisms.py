"""Automorphism groups of quandles and biquandles, subgroup constructions,
and brute-force verifiers for the structural theorems about them.

The verifiers hold groups as image rows, one row per element, and build
their predictions by numpy gathers.  Group equality between computed and
predicted groups always means equality of sorted, distinct image-row
arrays (core.unique_rows) inside the same symmetric group.
Semidirect-product claims are checked as cardinality + normality +
trivial intersection + generation, never as abstract isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import MAX_LISTED, preserves_tables, table_bijections
from .combinators import _check_cross_maps, _holomorph, _identity_maps, semidirect_biquandle, union_biquandle_constant, union_quandle
from .core import (
    FiniteBiquandle,
    FiniteQuandle,
    Permutation,
    PermutationGroup,
    associated_quandle,
    is_connected,
    is_faithful,
    orbits,
    row_keys,
    unique_rows,
)
from .enumeration import are_isomorphic
from .errors import DomainError
from .groups import FiniteGroup, GroupAutomorphism, commute, fixed_points
from .group_constructions import gen_alexander_biquandle, gen_dihedral_biquandle, takasaki
from .structures import biquandle_from_structure, constant_structure


def quandle_aut(q: FiniteQuandle) -> PermutationGroup:
    """All table-preserving bijections, by pruned backtracking."""
    return PermutationGroup.from_elements(q.n, table_bijections(q._side()))


def biquandle_aut(b: FiniteBiquandle) -> PermutationGroup:
    """All bijections preserving both tables."""
    return PermutationGroup.from_elements(b.n, table_bijections(b._side()))


def find_quandle_isomorphism(q1: FiniteQuandle, q2: FiniteQuandle):
    """A table-preserving bijection Q1 -> Q2, or None."""
    return are_isomorphic(q1, q2)


def _same(group, rows) -> bool:
    """Whether the group's elements are exactly the image rows, repeats
    allowed: the one test of group equality in this module."""
    return np.array_equal(group.rows, unique_rows(rows))


def _commuting(rows, fs):
    """The image rows of rows that commute with every image row of fs."""
    return rows[(rows[:, fs] == fs[:, rows].swapaxes(0, 1)).all(axis=(1, 2))]


def _normalizes(p, fam) -> bool:
    """Whether conjugation by the image row p, f -> p f p^{-1}, maps fam
    (sorted distinct image rows) onto itself."""
    return np.array_equal(unique_rows(p[fam[:, np.argsort(p)]]), fam)


def centralizer(g: PermutationGroup, f: Permutation) -> PermutationGroup:
    if f not in g:
        raise DomainError("f is not a member of the group")
    return PermutationGroup.from_elements(g.degree, _commuting(g.rows, f.array()[None]))


def normalizer_of_family(g: PermutationGroup, betas) -> PermutationGroup:
    """Members conjugating the family onto itself as a set."""
    betas = [f.images for f in betas]
    fam = unique_rows(np.array(betas, dtype=np.int64).reshape(len(betas), g.degree))
    return PermutationGroup.from_elements(g.degree, g.rows[[_normalizes(p, fam) for p in g.rows]])


def verify_constant_structure_aut(q: FiniteQuandle, f: Permutation) -> bool:
    """Aut of the constant-structure biquandle equals the centralizer of f
    inside Aut(Q)."""
    b = biquandle_from_structure(constant_structure(q, f))
    return _same(biquandle_aut(b), _commuting(quandle_aut(q).rows, f.array()[None]))


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
    cent = _commuting(aut_t.rows, phi.array()[None])
    return all(preserves_tables(c, [b.under, b.over]) for c in cent)


def verify_gen_alexander_aut(g: FiniteGroup, phi: GroupAutomorphism, psi: GroupAutomorphism) -> bool:
    """|Aut| = |Fix(psi)| * |C_{Aut(G)}(phi, psi)| and every automorphism
    factors as a Fix(psi)-translation composed with a commuting group
    automorphism: Aut is the set of maps x -> t a(x) for t in Fix(psi) and
    a in the centralizer, which are distinct since a(e) = e."""
    if not g.is_abelian():
        raise DomainError("need an abelian group")
    if not commute(phi, psi):
        raise DomainError("phi and psi must commute")
    pair = np.array([phi.images, psi.images], dtype=np.int64)
    if np.flatnonzero(pair[0] == pair[1]).tolist() != [g.e]:  # the fixed points of psi^{-1} phi
        raise DomainError("psi^{-1} phi must be fixed-point free")
    b = gen_alexander_biquandle(g, phi, psi)
    fix = np.array(fixed_points(g, psi), dtype=np.int64)
    cent = _commuting(table_bijections(g._side()), pair)
    return _same(biquandle_aut(b), g.mul[fix[:, None, None], cent[None]].reshape(-1, g.n))


def _blocks(r1, r2):
    """The image rows of (p1, p2) acting on the disjoint union, second part
    offset, for every row p1 of r1 and p2 of r2."""
    return np.hstack([np.repeat(r1, len(r2), axis=0), np.tile(r2 + r1.shape[1], (len(r1), 1))])


def _with_swap(blocks, alpha):
    """The block rows and the coset iota o blocks, for iota the swap
    x -> alpha(x) + n1 on the first part, alpha^{-1}(x - n1) on the second."""
    iota = np.concatenate([alpha + len(alpha), np.argsort(alpha)])
    return np.concatenate([blocks, iota[blocks]])


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
    blocks = _blocks(quandle_aut(q1).rows, quandle_aut(q2).rows)
    alpha = find_quandle_isomorphism(q1, q2)
    predicted = blocks if alpha is None else _with_swap(blocks, alpha.array())
    return UnionAutResult(group=brute, isomorphic=alpha is not None, verified=_same(brute, predicted))


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
    a1, a2 = quandle_aut(q1).rows, quandle_aut(q2).rows
    f1, f2 = f1.array(), f2.array()
    blocks = _blocks(_commuting(a1, f1[None]), _commuting(a2, f2[None]))
    alpha = find_quandle_isomorphism(q1, q2)
    if alpha is None:
        return 1, _same(brute, blocks)
    alpha = alpha.array()
    conj = np.argsort(alpha)[f2[alpha]]  # alpha^{-1} f2 alpha
    # the first psi in Aut(Q1) with psi^{-1} f1 psi = conj, i.e. f1 psi = psi conj
    psi = np.flatnonzero((f1[a1] == a1[:, conj]).all(axis=1))
    if not len(psi):
        return 2, _same(brute, blocks)
    return 3, _same(brute, _with_swap(blocks, alpha[np.argsort(a1[psi[0]])]))


def _compatible(q1: FiniteQuandle, q2: FiniteQuandle, psi):
    """(P, Aut(Q1), Aut(Q2), i, j): P[f] = psi_f as image rows, and the
    compatible pairs (a, b) = (Aut(Q1).rows[i], Aut(Q2).rows[j]), with
    psi_{b(f)} = a psi_f a^{-1}, in the order aut_psi_pairs lists them.

    psi is checked as semidirect_biquandle checks it, with the same error."""
    P = _check_cross_maps(q1, q2, _identity_maps(q1.n, q2.n), psi)[1]
    aut1, aut2 = quandle_aut(q1), quandle_aut(q2)
    Pb = P[aut2.rows]  # Pb[j, f] = psi_{b_j(f)}
    # psi_{b(f)} a == a psi_f for every f, for all b at once
    good = [(Pb[:, :, a] == a[P]).all(axis=(1, 2)) for a in aut1.rows]
    i, j = np.nonzero(good)
    return P, aut1, aut2, i, j


def aut_psi_pairs(q1: FiniteQuandle, q2: FiniteQuandle, psi):
    """Pairs (a, b) in Aut(Q1) x Aut(Q2) with psi_{b(f)} = a psi_f a^{-1}.

    psi is checked as semidirect_biquandle checks it, with the same error."""
    _, aut1, aut2, i, j = _compatible(q1, q2, psi)
    e1, e2 = list(aut1), list(aut2)
    return [(e1[x], e2[y]) for x, y in zip(i.tolist(), j.tolist())]


def aut_psi_subgroup(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> PermutationGroup:
    """The compatible-pairs subgroup acting on the product carrier, (x, f)
    at index x * |Q2| + f."""
    _, aut1, aut2, i, j = _compatible(q1, q2, psi)
    rows = aut1.rows[i][:, :, None] * q2.n + aut2.rows[j][:, None, :]
    return PermutationGroup.from_elements(q1.n * q2.n, rows.reshape(len(i), -1))


def _product_H(q1: FiniteQuandle, q2: FiniteQuandle, psi):
    """(B, Aut(Q2) rows, |Aut_psi|, C, orbits of Q2, H) for the semidirect
    biquandle B, each computed once: C = C_{Aut(Q1)}(psi(Q2) u Inn(Q1)) as
    sorted image rows, and H the sorted distinct image rows of the maps
    (x, f) -> (a d_{chi(f)}(x), b(f)) for (a, b) compatible and one d in C
    per orbit of Q2 (chi(f) the orbit of f).  Raises DomainError at the
    first map, in the order (a, b) then the d tuples, that does not
    preserve B, and before building more than MAX_LISTED maps."""
    psi = tuple(psi)
    b = semidirect_biquandle(q1, q2, psi)
    P, aut1, aut2, i, j = _compatible(q1, q2, psi)
    cent = _commuting(aut1.rows, np.concatenate([P, q1.table.T]))
    orbs = orbits(q2)
    count = len(i) * len(cent) ** len(orbs)
    if count > MAX_LISTED:
        raise DomainError(f"H is built from {count} maps, more than the {MAX_LISTED} that can be listed")
    chi = np.empty(q2.n, dtype=np.int64)
    for k, orb in enumerate(orbs):
        chi[orb] = k
    # D[t, f] = d_{chi(f)} for the t-th tuple of C^k in itertools.product order
    D = cent[np.indices((len(cent),) * len(orbs)).reshape(len(orbs), -1).T[:, chi]]
    # rows[(a, b), t, x, f] = a(D[t, f](x)) * |Q2| + b(f)
    rows = aut1.rows[i][:, D].transpose(0, 1, 3, 2) * q2.n + aut2.rows[j][:, None, None, :]
    rows = rows.reshape(count, q1.n * q2.n)
    H = unique_rows(rows)
    ok = np.array([preserves_tables(h, [b.under, b.over]) for h in H], dtype=bool)
    if not ok.all():
        bad = set(row_keys(H[~ok]))
        first = next(r for r, key in zip(rows.tolist(), row_keys(rows)) if key in bad)
        raise DomainError(f"predicted map is not an automorphism: {tuple(first)}")
    return b, aut2.rows, len(i), cent, orbs, H


def product_H_subgroup(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> PermutationGroup:
    """All maps (x,f) -> (a d_{chi(f)}(x), b(f)) with (a,b) compatible and
    one centralizer element d per orbit of Q2; each is verified to preserve
    the semidirect biquandle and the family is verified to close."""
    return PermutationGroup.from_elements(q1.n * q2.n, _product_H(q1, q2, psi)[-1])


def verify_product_aut_theorem(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> bool:
    """Brute-force Aut of the semidirect biquandle equals the predicted
    subgroup, for connected Q1 and id in psi(Q2)."""
    psi = tuple(psi)
    if not is_connected(q1):
        raise DomainError("Q1 must be connected")
    if not any(p.is_identity() for p in psi):
        raise DomainError("psi(Q2) must contain the identity")
    b, *_, h = _product_H(q1, q2, psi)
    return _same(biquandle_aut(b), h)


def verify_sequence_cardinality(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> bool:
    """|C|^k * |Aut_psi| == |C| * |H|; when every automorphism of Q2 fixes
    the first orbit, additionally |H| == |C|^{k-1} * |Aut_psi|."""
    _, aut2, pairs, cent, orbs, h = _product_H(q1, q2, psi)
    c, k = len(cent), len(orbs)
    ok = c**k * pairs == c * len(h)
    first = np.zeros(q2.n, dtype=bool)  # np.isin's sort path imports numpy.ma
    first[orbs[0]] = True
    if first[aut2[:, orbs[0]]].all():
        ok = ok and len(h) == c ** (k - 1) * pairs
    return ok


def verify_holomorph_aut(q: FiniteQuandle) -> bool:
    """Brute-force Aut(Hol(Q)) equals {(x,f) -> (a(x), a f a^{-1})}."""
    if not (is_faithful(q) and is_connected(q)):
        raise DomainError("need a faithful connected quandle")
    hol, aut, p = _holomorph(q)
    # predicted[j, x, i]: the index of (a(x), a f_i a^{-1}) for a = f_j,
    # where p.table[i, j] is the index of f_j f_i f_j^{-1}
    predicted = aut.rows[:, :, None] * aut.order + p.table.T[:, None, :]
    return _same(biquandle_aut(hol), predicted.reshape(aut.order, hol.n))


def verify_structure_normalizer(b: FiniteBiquandle) -> bool:
    """Aut(B) normalizes the over-column family inside Aut of the
    associated quandle."""
    aq = quandle_aut(associated_quandle(b))
    ab = biquandle_aut(b).rows
    fam = unique_rows(b.over.T)  # the over columns
    # Aut(B) lies in Aut(Q) when adding its rows leaves Aut(Q)'s unchanged
    return _same(aq, np.concatenate([aq.rows, ab])) and all(_normalizes(p, fam) for p in ab)


def verify_structure_normalizer_printed(b: FiniteBiquandle) -> bool:
    """The stronger containment with all of Aut(Q) in place of Aut(B);
    informational only, and false in general."""
    fam = unique_rows(b.over.T)
    return all(_normalizes(p, fam) for p in quandle_aut(associated_quandle(b)).rows)
