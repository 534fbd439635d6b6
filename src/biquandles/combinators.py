"""Biquandles on unions and products of quandles, and the holomorph.

Indexing conventions: in a disjoint union the first quandle keeps its
indices and the second is offset by |Q1|; on a product the pair (x, a) maps
to x*|Q2| + a.  Automorphism-valued maps are passed as sequences of
Permutation, one per element of the source quandle; the required
homomorphism property into the conjugation quandle of the target's
automorphism group (h(x*y) = h(y) h(x) h(y)^{-1}) is always verified.

Inside, a family of k maps is one (k, n) int64 array of image rows, stacked
once at the boundary (_check_aut_valued).  Every hypothesis check is gathers
on these rows, swept one x at a time, and reports its first witness in C
order; the tables are built by broadcast gathers.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _first, first_violation
from ._search import preserves_tables
from .core import FiniteBiquandle, FiniteQuandle, Permutation, is_involutory_quandle, row_keys
from .errors import DomainError
from .structures import BiquandleStructure, _aut_stack, _require_permutation


def _check_aut_valued(q_target: FiniteQuandle, maps, name):
    """The family maps as image rows; raises at the first member that is not
    an automorphism of q_target."""
    rows, ok = _aut_stack(q_target, maps)
    if not ok.all():
        raise DomainError(f"{name}[{int(np.argmin(ok))}] is not an automorphism of the target quandle")
    return rows


def _hom_slabs(t, H, f):
    """Per x, yield (x, bad) with bad[y, z] set where H[f(x*y)] H[y] and
    H[f(y)] H[x] differ at z, for t the source table, H its image rows and
    f a map of the source (composition right to left)."""
    m = H.shape[1]
    flat = H.ravel()
    fm = f * m
    for x in range(t.shape[0]):
        yield x, flat.take(fm[t[x]][:, None] + H) != flat.take(fm[:, None] + H[x])


def _check_conj_hom(q_source: FiniteQuandle, maps, name):
    """h(x*y) == h(y) h(x) h(y)^{-1}, i.e. h(x*y) h(y) == h(y) h(x), for all x, y."""
    hit = first_violation(_hom_slabs(q_source.table, maps, np.arange(q_source.n)))
    if hit:
        raise DomainError(f"{name} is not a quandle homomorphism into the conjugation quandle: witness (x={hit[0]}, y={hit[1]})")


def _identity_maps(n_source, n_target):
    return (Permutation.identity(n_target),) * n_source


def _union_slabs(t, A, B):
    """Per x, yield (x, bad) with bad[y, z] set where A[z](x) * y and
    A[B[y](z)](x * y) differ; t is the table of the quandle A acts on."""
    n = t.shape[0]
    flat, tflat = A.ravel(), t.ravel()
    ys = np.arange(n)[:, None]
    for x in range(n):
        yield x, tflat.take(A[:, x] * n + ys) != flat.take(B * n + t[x][:, None])


def union_quandle(q1: FiniteQuandle, q2: FiniteQuandle, sigma=None, tau=None) -> FiniteQuandle:
    """Quandle on the disjoint union with mixed products through sigma, tau.

    sigma maps Q1 into Aut(Q2), tau maps Q2 into Aut(Q1); trivial maps give
    the plain union.  The two compatibility conditions are checked and a
    witness triple is reported on failure.
    """
    n1, n2 = q1.n, q2.n
    sigma = np.tile(np.arange(n2), (n1, 1)) if sigma is None else _check_aut_valued(q2, sigma, "sigma")
    tau = np.tile(np.arange(n1), (n2, 1)) if tau is None else _check_aut_valued(q1, tau, "tau")
    if len(sigma) != n1 or len(tau) != n2:
        raise DomainError("sigma must have length |Q1| and tau length |Q2|")
    _check_conj_hom(q1, sigma, "sigma")
    _check_conj_hom(q2, tau, "tau")
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
    phi = _check_aut_valued(q2, phi, "phi")
    psi = _check_aut_valued(q1, psi, "psi")
    if len(phi) != n1 or len(psi) != n2:
        raise DomainError("phi must have length |Q1| and psi length |Q2|")
    _check_conj_hom(q1, phi, "phi")
    _check_conj_hom(q2, psi, "psi")
    # both conditions on the [x1, x2] grid, maps compared by row id
    phi_id, psi_id = (np.unique(h, axis=0, return_inverse=True)[1].reshape(-1) for h in (phi, psi))
    bad_phi = phi_id[:, None] != phi_id[psi.T]
    bad = bad_phi | (psi_id[None, :] != psi_id[phi])
    if bad.any():
        x1, x2 = _first(bad)
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
    return FiniteBiquandle(under, over)


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
    """
    n1, n2 = q1.n, q2.n
    phi = _check_aut_valued(q2, phi, "phi")
    psi = _check_aut_valued(q1, psi, "psi")
    if len(phi) != n1 or len(psi) != n2:
        raise DomainError("phi must have length |Q1| and psi length |Q2|")
    _check_conj_hom(q1, phi, "phi")
    _check_conj_hom(q2, psi, "psi")
    if case not in (1, 2):
        raise DomainError("case must be 1 or 2")
    # the two cases are mirror images: (Q, maps, constant family, names)
    q, maps, const, (cname, u, v) = (q1, phi, psi, ("psi", "x", "y")) if case == 1 else (q2, psi, phi, ("phi", "a", "b"))
    if (const != const[0]).any():
        raise DomainError(f"case {case} needs a constant {cname}")
    hit = first_violation(_hom_slabs(q.table, maps, const[0]))
    if hit:
        raise DomainError(f"case {case} condition fails at ({u}={hit[0]}, {v}={hit[1]})")
    # axes [x, a, y, b] of the pair (x, a) acting with (y, b)
    x, y = np.arange(n1)[:, None, None, None], np.arange(n1)[None, None, :, None]
    a, b = np.arange(n2)[None, :, None, None], np.arange(n2)[None, None, None, :]
    under = psi[b, q1.table[x, y]] * n2 + phi[y, a]
    over = psi[b, x] * n2 + phi[y, q2.table[a, b]]
    n = n1 * n2
    return FiniteBiquandle(under.reshape(n, n), over.reshape(n, n))


def semidirect_biquandle(q1: FiniteQuandle, q2: FiniteQuandle, psi) -> FiniteBiquandle:
    """Biquandle on Q1 x Q2 with
        (x,a) u (y,b) = (psi_b(x *1 y), a)
        (x,a) o (y,b) = (psi_b(x), a *2 b)
    for a homomorphism psi from Q2 into the conjugation quandle of Aut(Q1)."""
    phi = _identity_maps(q1.n, q2.n)
    return product_biquandle(q1, q2, phi, psi, case=2)


def conj_quandle_of_permgroup(perms) -> tuple[FiniteQuandle, list]:
    """Conjugation quandle a*b = b a b^{-1} on a sorted permutation list."""
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
    return FiniteQuandle(np.array(found, dtype=np.int64).reshape(n, n)), ordered


def holomorph_biquandle(q: FiniteQuandle) -> FiniteBiquandle:
    """Biquandle on Q x Aut(Q) with
        (x,f) u (y,g) = (g(x*y), f)
        (x,f) o (y,g) = (g(x), g f g^{-1}).

    The automorphism factor is ordered by image tuple, so (x, f_i) sits at
    index x*|Aut(Q)| + i.
    """
    from .automorphisms import quandle_aut

    aut = quandle_aut(q)
    p, ordered = conj_quandle_of_permgroup(aut)
    return semidirect_biquandle(q, p, tuple(ordered))
