"""Biquandles on unions and products of quandles, and the holomorph.

Indexing conventions: in a disjoint union the first quandle keeps its
indices and the second is offset by |Q1|; on a product the pair (x, a) maps
to x*|Q2| + a.  Automorphism-valued maps are passed as sequences of
Permutation, one per element of the source quandle; the required
homomorphism property into the conjugation quandle of the target's
automorphism group (h(x*y) = h(y) h(x) h(y)^{-1}) is always verified.

Inside, a family of k maps is one (k, n) int64 array of image rows, stacked
once at the boundary (_check_aut_valued).  The conditions on pairs (x, y)
compare each distinct quadruple of maps once (_kernels.first_disagreement),
the union conditions on triples are rules of the witness walk, and each
reports its first witness in C order.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _columns, first_disagreement, first_violation, walk
from ._search import preserves_tables
from .core import FiniteBiquandle, FiniteQuandle, Permutation, is_involutory_quandle, row_keys
from .errors import DomainError
from .structures import BiquandleStructure, _image_rows, _require_permutation


def _check_aut_valued(q_target: FiniteQuandle, maps, name):
    """The family maps as image rows; raises at the first member that is not
    an automorphism of q_target."""
    rows, *_, ok = _image_rows(q_target, tuple(maps))
    if not ok.all():
        raise DomainError(f"{name}[{int(np.argmin(ok))}] is not an automorphism of the target quandle")
    return rows


def _check_conj_hom(q_source: FiniteQuandle, maps, name):
    """h(x*y) == h(y) h(x) h(y)^{-1}, i.e. h(x*y) h(y) == h(y) h(x), for all x, y."""
    y = np.arange(q_source.n)
    hit = first_disagreement(*_columns(maps.T), q_source.table, y, y, y[:, None])
    if hit:
        raise DomainError(f"{name} is not a quandle homomorphism into the conjugation quandle: witness (x={hit[0]}, y={hit[1]})")


def _check_cross_maps(q1: FiniteQuandle, q2: FiniteQuandle, phi, psi, names=("phi", "psi")):
    """phi: Q1 -> Aut(Q2) and psi: Q2 -> Aut(Q1) as image rows, checked as
    maps into the conjugation quandles; raises at the first failure, naming
    the maps by names."""
    a, b = names
    phi = _check_aut_valued(q2, phi, a)
    psi = _check_aut_valued(q1, psi, b)
    if len(phi) != q1.n or len(psi) != q2.n:
        raise DomainError(f"{a} must have length |Q1| and {b} length |Q2|")
    _check_conj_hom(q1, phi, a)
    _check_conj_hom(q2, psi, b)
    return phi, psi


def _identity_maps(n_source, n_target):
    return (Permutation.identity(n_target),) * n_source


def _union_slabs(t, A, B):
    """The witness walk over (x, y, z): bad[i, z] set where A[z](x) * y and
    A[B[y](z)](x * y) differ, for (x, y) = (x[i], y[i]); t is the table of
    the quandle A acts on."""
    n = t.shape[0]
    flat, tflat = A.ravel(), t.ravel()
    AT = np.ascontiguousarray(A.T)  # AT[x, z] = A[z, x]

    def rule(x, y):
        return tflat.take(AT[x] * n + y[:, None]) != flat.take(B[y] * n + tflat.take(x * n + y)[:, None])

    return walk(n, len(A), rule)


def union_quandle(q1: FiniteQuandle, q2: FiniteQuandle, sigma=None, tau=None) -> FiniteQuandle:
    """Quandle on the disjoint union with mixed products through sigma, tau.

    sigma maps Q1 into Aut(Q2), tau maps Q2 into Aut(Q1); trivial maps give
    the plain union.  The two compatibility conditions are checked and a
    witness triple is reported on failure.
    """
    n1, n2 = q1.n, q2.n
    sigma = _identity_maps(n1, n2) if sigma is None else sigma
    tau = _identity_maps(n2, n1) if tau is None else tau
    sigma, tau = _check_cross_maps(q1, q2, sigma, tau, ("sigma", "tau"))
    # condition 1: tau(z)(x) *1 y == tau(sigma(y)(z))(x *1 y),  x,y in Q1, z in Q2
    # condition 2: sigma(z)(x) *2 y == sigma(tau(y)(z))(x *2 y),  x,y in Q2, z in Q1
    for k, args in enumerate(((q1.table, tau, sigma), (q2.table, sigma, tau)), 1):
        hit = first_violation(_union_slabs(*args))
        if hit:
            x, y, z = hit
            raise DomainError(f"union condition {k} fails at (x={x}, y={y}, z={z})")
    return FiniteQuandle(np.block([[q1.table, tau.T], [sigma.T + n1, q2.table + n1]]))


def union_biquandle_general(q1: FiniteQuandle, q2: FiniteQuandle, phi, psi) -> BiquandleStructure:
    """Biquandle structure on Q1 u Q2 from cross-acting automorphism maps.

    phi maps Q1 into Aut(Q2) and psi maps Q2 into Aut(Q1); both must be
    homomorphisms into the conjugation quandle and satisfy
    phi_{x1} = phi_{psi_{x2}(x1)} and psi_{x2} = psi_{phi_{x1}(x2)}.
    """
    n1, n2 = q1.n, q2.n
    phi, psi = _check_cross_maps(q1, q2, phi, psi)
    # both conditions on the [x1, x2] grid, maps compared by row id
    phi_id, psi_id = (_columns(h.T)[0] for h in (phi, psi))
    bad_phi = phi_id[:, None] != phi_id[psi.T]
    bad = bad_phi | (psi_id[None, :] != psi_id[phi])
    if bad.any():
        x1, x2 = np.argwhere(bad)[0].tolist()
        which = "phi" if bad_phi[x1, x2] else "psi"
        raise DomainError(f"union structure condition {which} fails at (x1={x1}, x2={x2})")
    # beta_a extends phi_a (a in Q1) or psi_a (a in Q2) by the identity
    ident1, ident2 = np.tile(np.arange(n1), (n1, 1)), np.tile(np.arange(n1, n1 + n2), (n2, 1))
    betas = np.block([[ident1, phi + n1], [psi, ident2]])
    return BiquandleStructure(union_quandle(q1, q2), tuple(Permutation(tuple(r)) for r in betas.tolist()))


def union_biquandle_constant(q1: FiniteQuandle, q2: FiniteQuandle, f: Permutation, g: Permutation) -> FiniteBiquandle:
    """The union biquandle twisted by constant automorphisms f of Q1, g of Q2.

    Within each part the under operation is the part's own product and over
    is trivial; across parts both operations apply f (on Q1 elements) or g
    (on Q2 elements).

    Once f and g are automorphisms, these tables are a biquandle by the
    paper's union construction with constant maps (Bardakov, Nasybullov and
    Singh, General constructions of biquandles and their symmetries, 2019),
    so the axioms are not checked again.
    """
    _require_permutation("f", f)
    _require_permutation("g", g)
    if not preserves_tables(f.images, [q1.table]):
        raise DomainError("f is not an automorphism of Q1")
    if not preserves_tables(g.images, [q2.table]):
        raise DomainError("g is not an automorphism of Q2")
    n1, n2 = q1.n, q2.n
    fx = np.tile(f.array()[:, None], (1, n2))  # f(x) for x in Q1, against any y in Q2
    gx = np.tile(n1 + g.array()[:, None], (1, n1))
    under = np.block([[q1.table, fx], [gx, q2.table + n1]])
    over = np.block([[np.tile(np.arange(n1)[:, None], (1, n1)), fx], [gx, np.tile(np.arange(n1, n1 + n2)[:, None], (1, n2))]])
    return FiniteBiquandle._proven(under, over)


def involutory_union_check(q1: FiniteQuandle, q2: FiniteQuandle, phi, psi) -> bool:
    """Whether the hypotheses forcing an involutory union biquandle hold:
    both quandles involutory and every phi_x, psi_y an involution.  The maps
    must be admissible for union_biquandle_general."""
    s = union_biquandle_general(q1, q2, phi, psi)  # admissibility, raises if not
    if not (is_involutory_quandle(q1) and is_involutory_quandle(q2)):
        return False
    # beta_a is phi_a or psi_a extended by the identity: an involution iff they are
    B = s.beta_arrays()
    return bool((np.take_along_axis(B, B, axis=1) == np.arange(len(B))).all())


def product_biquandle(q1: FiniteQuandle, q2: FiniteQuandle, phi, psi, case) -> FiniteBiquandle:
    """Biquandle on Q1 x Q2 with
        (x,a) u (y,b) = (psi_b(x *1 y), phi_y(a))
        (x,a) o (y,b) = (psi_b(x),      phi_y(a *2 b)).

    case 1 requires psi constant {f} with phi_{f(x *1 y)} = phi_{f(y)} phi_x phi_y^{-1};
    case 2 requires phi constant {g} with psi_{g(a *2 b)} = psi_{g(b)} psi_a psi_b^{-1}.

    These hypotheses, with phi and psi homomorphisms into the conjugation
    quandles of Aut(Q2) and Aut(Q1), are those of the paper's product
    theorem (Bardakov, Nasybullov and Singh 2019), which proves the tables
    a biquandle; so once they are checked, the axioms on the n1 n2 product
    are not checked again.
    """
    n1, n2 = q1.n, q2.n
    phi, psi = _check_cross_maps(q1, q2, phi, psi)
    if case not in (1, 2):
        raise DomainError("case must be 1 or 2")
    # the two cases are mirror images: (Q, maps, constant family, names)
    q, maps, const, (cname, u, v) = (q1, phi, psi, ("psi", "x", "y")) if case == 1 else (q2, psi, phi, ("phi", "a", "b"))
    if (const != const[0]).any():
        raise DomainError(f"case {case} needs a constant {cname}")
    # h_{f(x*y)} h_y == h_{f(y)} h_x at each (x, y), f = const[0]
    f, y = const[0], np.arange(q.n)
    hit = first_disagreement(*_columns(maps.T), f.take(q.table), y, f, y[:, None])
    if hit:
        raise DomainError(f"case {case} condition fails at ({u}={hit[0]}, {v}={hit[1]})")
    # axes [x, a, y, b] of the pair (x, a) acting with (y, b)
    x, y = np.arange(n1)[:, None, None, None], np.arange(n1)[None, None, :, None]
    a, b = np.arange(n2)[None, :, None, None], np.arange(n2)[None, None, None, :]
    under = psi[b, q1.table[x, y]] * n2 + phi[y, a]
    over = psi[b, x] * n2 + phi[y, q2.table[a, b]]
    n = n1 * n2
    return FiniteBiquandle._proven(under.reshape(n, n), over.reshape(n, n))


def semidirect_biquandle(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> FiniteBiquandle:
    """Biquandle on Q1 x Q2 with
        (x,a) u (y,b) = (psi_b(x *1 y), a)
        (x,a) o (y,b) = (psi_b(x), a *2 b)
    for a homomorphism psi from Q2 into the conjugation quandle of Aut(Q1):
    case 2 of product_biquandle with phi trivial, proved by its theorem."""
    phi = _identity_maps(q1.n, q2.n)
    return product_biquandle(q1, q2, phi, psi, case=2)


def conj_quandle_of_permgroup(perms) -> tuple[FiniteQuandle, list]:
    """Conjugation quandle a*b = b a b^{-1} on a sorted permutation list.

    Once the list is closed under conjugation, it is a quandle as every
    conjugation quandle of a group is (Joyce 1982): a*a = a, each b acts
    by the bijection a -> b a b^{-1}, and conjugation by c carries
    b a b^{-1} to (c b c^{-1})(c a c^{-1})(c b c^{-1})^{-1}.  So the axioms
    are not checked again."""
    ordered = sorted(set(perms))
    n = len(ordered)
    d = ordered[0].n if ordered else 0
    rows = np.array([p.images for p in ordered], dtype=np.int64).reshape(n, d)
    flat, at = rows.ravel(), np.arange(n) * d
    # conj[i, j]: the images of b a b^{-1} = b[a[b^{-1}]], a = rows[i], b = rows[j]
    conj = flat.take(at[None, :, None] + flat.take(at[:, None, None] + np.argsort(rows, axis=1)))
    index = dict(zip(row_keys(rows), range(n)))
    found = [index.get(key, -1) for key in row_keys(conj)]
    if -1 in found:
        i, j = divmod(found.index(-1), n)
        raise DomainError(f"the permutations are not closed under conjugation: b a b^-1 is not among them for a = {ordered[i].images}, b = {ordered[j].images}")
    return FiniteQuandle._proven(np.array(found, dtype=np.int64).reshape(n, n)), ordered


def _holomorph(q: FiniteQuandle):
    """(Hol(Q), Aut(Q), the conjugation quandle of Aut(Q)), each built once."""
    from .automorphisms import quandle_aut

    aut = quandle_aut(q)
    p, ordered = conj_quandle_of_permgroup(aut)
    return semidirect_biquandle(q, p, tuple(ordered)), aut, p


def holomorph_biquandle(q: FiniteQuandle) -> FiniteBiquandle:
    """Biquandle on Q x Aut(Q) with
        (x,f) u (y,g) = (g(x*y), f)
        (x,f) o (y,g) = (g(x), g f g^{-1}).

    The automorphism factor is ordered by image tuple, so (x, f_i) sits at
    index x*|Aut(Q)| + i.
    """
    return _holomorph(q)[0]
