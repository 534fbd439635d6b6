"""Biquandles on unions and products of quandles, and the holomorph.

Indexing conventions: in a disjoint union the first quandle keeps its
indices and the second is offset by |Q1|; on a product the pair (x, a) maps
to x*|Q2| + a.  Automorphism-valued maps are passed as sequences of
Permutation, one per element of the source quandle; the required
homomorphism property into the conjugation quandle of the target's
automorphism group (h(x*y) = h(y) h(x) h(y)^{-1}) is always verified.
"""

from __future__ import annotations

import numpy as np

from ._search import preserves_tables
from .core import FiniteBiquandle, FiniteQuandle, Permutation
from .errors import DomainError
from .structures import BiquandleStructure


def _check_aut_valued(q_target: FiniteQuandle, maps, name):
    maps = tuple(maps)
    for i, m in enumerate(maps):
        if not isinstance(m, Permutation) or not preserves_tables(m.images, [q_target.table]):
            raise DomainError(f"{name}[{i}] is not an automorphism of the target quandle")
    return maps


def _check_conj_hom(q_source: FiniteQuandle, maps, name):
    """h(x*y) == h(y) h(x) h(y)^{-1} for all x, y in the source quandle."""
    for x in range(q_source.n):
        for y in range(q_source.n):
            if maps[q_source.op(x, y)] != maps[y] * maps[x] * maps[y].inverse():
                raise DomainError(f"{name} is not a quandle homomorphism into the conjugation quandle: witness (x={x}, y={y})")


def _identity_maps(n_source, n_target):
    ident = Permutation.identity(n_target)
    return tuple(ident for _ in range(n_source))


def union_quandle(q1: FiniteQuandle, q2: FiniteQuandle, sigma=None, tau=None) -> FiniteQuandle:
    """Quandle on the disjoint union with mixed products through sigma, tau.

    sigma maps Q1 into Aut(Q2), tau maps Q2 into Aut(Q1); trivial maps give
    the plain union.  The two compatibility conditions are checked and a
    witness triple is reported on failure.
    """
    n1, n2 = q1.n, q2.n
    sigma = _identity_maps(n1, n2) if sigma is None else _check_aut_valued(q2, sigma, "sigma")
    tau = _identity_maps(n2, n1) if tau is None else _check_aut_valued(q1, tau, "tau")
    if len(sigma) != n1 or len(tau) != n2:
        raise DomainError("sigma must have length |Q1| and tau length |Q2|")
    _check_conj_hom(q1, sigma, "sigma")
    _check_conj_hom(q2, tau, "tau")
    # condition 1: tau(z)(x) *1 y == tau(sigma(y)(z))(x *1 y),  x,y in Q1, z in Q2
    for x in range(n1):
        for y in range(n1):
            for z in range(n2):
                if q1.op(tau[z](x), y) != tau[sigma[y](z)](q1.op(x, y)):
                    raise DomainError(f"union condition 1 fails at (x={x}, y={y}, z={z})")
    # condition 2: sigma(z)(x) *2 y == sigma(tau(y)(z))(x *2 y),  x,y in Q2, z in Q1
    for x in range(n2):
        for y in range(n2):
            for z in range(n1):
                if q2.op(sigma[z](x), y) != sigma[tau[y](z)](q2.op(x, y)):
                    raise DomainError(f"union condition 2 fails at (x={x}, y={y}, z={z})")
    n = n1 + n2
    t = np.empty((n, n), dtype=np.int64)
    t[:n1, :n1] = q1.table
    t[n1:, n1:] = q2.table + n1
    for x in range(n1):
        for y in range(n2):
            t[x, n1 + y] = tau[y](x)
    for x in range(n2):
        for y in range(n1):
            t[n1 + x, y] = sigma[y](x) + n1
    return FiniteQuandle(t)


def _extend_to_union(p: Permutation, n1, n2, on_first):
    """Extend an automorphism of one part by the identity on the other."""
    if on_first:
        return Permutation(tuple(p.images) + tuple(range(n1, n1 + n2)))
    return Permutation(tuple(range(n1)) + tuple(n1 + i for i in p.images))


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
    for x1 in range(n1):
        for x2 in range(n2):
            if phi[x1] != phi[psi[x2](x1)]:
                raise DomainError(f"union structure condition phi fails at (x1={x1}, x2={x2})")
            if psi[x2] != psi[phi[x1](x2)]:
                raise DomainError(f"union structure condition psi fails at (x1={x1}, x2={x2})")
    base = union_quandle(q1, q2)
    betas = tuple(
        _extend_to_union(phi[a], n1, n2, on_first=False)
        if a < n1
        else _extend_to_union(psi[a - n1], n1, n2, on_first=True)
        for a in range(n1 + n2)
    )
    return BiquandleStructure(base, betas)


def union_biquandle_constant(q1: FiniteQuandle, q2: FiniteQuandle, f: Permutation, g: Permutation) -> FiniteBiquandle:
    """The union biquandle twisted by constant automorphisms f of Q1, g of Q2.

    Within each part the under operation is the part's own product and over
    is trivial; across parts both operations apply f (on Q1 elements) or g
    (on Q2 elements).
    """
    if not preserves_tables(f.images, [q1.table]):
        raise DomainError("f is not an automorphism of Q1")
    if not preserves_tables(g.images, [q2.table]):
        raise DomainError("g is not an automorphism of Q2")
    n1, n2 = q1.n, q2.n
    n = n1 + n2
    under = np.empty((n, n), dtype=np.int64)
    over = np.empty((n, n), dtype=np.int64)
    ar1 = np.arange(n1)
    ar2 = np.arange(n2)
    under[:n1, :n1] = q1.table
    over[:n1, :n1] = ar1[:, None]
    under[n1:, n1:] = q2.table + n1
    over[n1:, n1:] = n1 + ar2[:, None]
    fimg = np.array(f.images, dtype=np.int64)
    gimg = np.array(g.images, dtype=np.int64)
    under[:n1, n1:] = fimg[:, None]
    over[:n1, n1:] = fimg[:, None]
    under[n1:, :n1] = n1 + gimg[:, None]
    over[n1:, :n1] = n1 + gimg[:, None]
    return FiniteBiquandle(under, over)


def involutory_union_check(q1: FiniteQuandle, q2: FiniteQuandle, phi, psi) -> bool:
    """Whether the hypotheses forcing an involutory union biquandle hold:
    both quandles involutory and every phi_x, psi_y an involution.  The maps
    must be admissible for union_biquandle_general."""
    from .core import is_involutory_quandle

    union_biquandle_general(q1, q2, phi, psi)  # admissibility, raises if not
    if not (is_involutory_quandle(q1) and is_involutory_quandle(q2)):
        return False
    ok1 = all((p * p).is_identity() for p in phi)
    ok2 = all((p * p).is_identity() for p in psi)
    return ok1 and ok2


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
    if case == 1:
        if any(p != psi[0] for p in psi):
            raise DomainError("case 1 needs a constant psi")
        f = psi[0]
        for x in range(n1):
            for y in range(n1):
                if phi[f(q1.op(x, y))] != phi[f(y)] * phi[x] * phi[y].inverse():
                    raise DomainError(f"case 1 condition fails at (x={x}, y={y})")
    elif case == 2:
        if any(p != phi[0] for p in phi):
            raise DomainError("case 2 needs a constant phi")
        g = phi[0]
        for a in range(n2):
            for b in range(n2):
                if psi[g(q2.op(a, b))] != psi[g(b)] * psi[a] * psi[b].inverse():
                    raise DomainError(f"case 2 condition fails at (a={a}, b={b})")
    else:
        raise DomainError("case must be 1 or 2")
    n = n1 * n2
    under = np.empty((n, n), dtype=np.int64)
    over = np.empty((n, n), dtype=np.int64)
    for y in range(n1):
        phy = np.array(phi[y].images, dtype=np.int64)
        for b in range(n2):
            psb = np.array(psi[b].images, dtype=np.int64)
            col = y * n2 + b
            under.reshape(n1, n2, n)[:, :, col] = (psb[q1.table[:, y]][:, None] * n2 + phy[None, :])
            over.reshape(n1, n2, n)[:, :, col] = (psb[:, None] * n2 + phy[q2.table[:, b]][None, :])
    return FiniteBiquandle(under, over)


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
    index = {p: i for i, p in enumerate(ordered)}
    n = len(ordered)
    t = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            t[i, j] = index[b * a * b.inverse()]
    return FiniteQuandle(t), ordered


def holomorph_biquandle(q: FiniteQuandle) -> FiniteBiquandle:
    """Biquandle on Q x Aut(Q) with
        (x,f) u (y,g) = (g(x*y), f)
        (x,f) o (y,g) = (g(x), g f g^{-1}).

    The automorphism factor is ordered by image tuple, so (x, f_i) sits at
    index x*|Aut(Q)| + i.
    """
    from .automorphisms import quandle_aut

    aut = quandle_aut(q)
    p, ordered = conj_quandle_of_permgroup(aut.elements)
    return semidirect_biquandle(q, p, tuple(ordered))
