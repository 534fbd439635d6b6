"""Quandle coverings at desk scale: the covering predicate, lifting
biquandle structures along coverings by direct search, and the related
automorphism checks.

Lifting is solved by constraint search over fiber-constant automorphism
families, not through fundamental-group machinery; a failed search is
reported as "not found within search", never as non-existence.  The lifts
of one base automorphism come from the bijection engine in
biquandles._search, with each element coloured by the fibre it must map
into, so Aut of the covering is never materialised.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._kernels import _columns
from ._search import table_bijections
from .automorphisms import _normalizes, biquandle_aut
from .core import FiniteQuandle, Permutation, unique_rows
from .errors import DomainError
from .structures import BiquandleStructure, biquandle_from_structure


def is_quandle_covering(p, qt: FiniteQuandle, q: FiniteQuandle) -> bool:
    """p is a surjective homomorphism and collapses right translations:
    p(x) = p(y) implies the columns of x and y coincide."""
    p = np.asarray(p, dtype=np.int64)
    if p.shape != (qt.n,) or p.min() < 0 or p.max() >= q.n:
        raise DomainError("p must map the covering's elements into the base")
    if len(set(p.tolist())) != q.n:
        return False
    if not np.array_equal(p[qt.table], q.table[np.ix_(p, p)]):
        return False
    # p is onto, so the q.n fibres make q.n distinct (p(x), column class)
    # pairs exactly when each fibre has one class
    return len(set((p * qt.n + _columns(qt.table)[0]).tolist())) == q.n


def image_quandle_SQ(q: FiniteQuandle):
    """The quandle on the distinct right translations with conjugation
    operation A*B = B A B^{-1}, together with the natural projection.

    Returns (image quandle, p) with p[x] the class of x's translation;
    p is always a covering of the result.
    """
    ids = _columns(q.table)[0]
    # classes renumbered by first occurrence: reps[k] is the first x of class k
    reps = np.sort(np.unique(ids, return_index=True)[1])
    p = np.argsort(ids[reps])[ids]
    return FiniteQuandle(p[q.table[np.ix_(reps, reps)]]), p


def _lifts(p, qt: FiniteQuandle, phi):
    """The automorphisms g of the covering with p(g(x)) = phi(p(x)), as
    sorted image rows."""
    return table_bijections(qt._side(), colours=(phi[p], p))


def lift_structure_search(p, qt: FiniteQuandle, q: FiniteQuandle, a: BiquandleStructure):
    """First fiber-constant automorphism family on the covering satisfying
    the commuting squares p(alpha_y(x)) = beta_{p(y)}(p(x)) and the two
    structure conditions, in deterministic order; None when the search is
    exhausted without a hit."""
    p = np.asarray(p, dtype=np.int64)
    if not is_quandle_covering(p, qt, q):
        raise DomainError("p is not a quandle covering")
    if a.base != q:
        raise DomainError("structure must live on the covering's base")
    # candidates per base element y: the lifts of beta_y through p
    cand = [[Permutation.from_array(g) for g in _lifts(p, qt, b.array())] for b in a.betas]
    for chosen in itertools.product(*cand):
        try:
            return BiquandleStructure(qt, tuple(chosen[y] for y in p.tolist()))
        except DomainError:
            pass
    return None


def verify_covering_biquandle_hom(p, lifted: BiquandleStructure, base: BiquandleStructure) -> bool:
    """p preserves both operations between the induced biquandles."""
    p = np.asarray(p, dtype=np.int64)
    bt = biquandle_from_structure(lifted)
    bb = biquandle_from_structure(base)
    ok_u = np.array_equal(p[bt.under], bb.under[np.ix_(p, p)])
    ok_o = np.array_equal(p[bt.over], bb.over[np.ix_(p, p)])
    return bool(ok_u and ok_o)


def verify_lift_normalizer(p, lifted: BiquandleStructure, base: BiquandleStructure):
    """Whether every automorphism of the base biquandle lifts through p to
    an automorphism of the covering normalizing the lifted family.

    Returns True/False, or None (inconclusive) when some automorphism of
    the base biquandle admits no lift at all.
    """
    p = np.asarray(p, dtype=np.int64)
    aut_b = biquandle_aut(biquandle_from_structure(base))
    lifts = [_lifts(p, lifted.base, phi) for phi in aut_b.rows]
    if not all(len(gs) for gs in lifts):
        return None
    fam = unique_rows(lifted.beta_arrays())
    return all(any(_normalizes(g, fam) for g in gs) for gs in lifts)
