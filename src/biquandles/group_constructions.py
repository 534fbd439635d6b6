"""Group-derived quandle and biquandle families.

All constructors index (bi)quandle elements by the group's element indices,
so group homomorphisms transport directly to the derived structures.

Each family is a quandle or biquandle on every group once its parameters
pass the checks below (each docstring names the result), so the tables are
built as proven objects (FiniteQuandle._proven, FiniteBiquandle._proven),
with no axiom sweep.
"""

from __future__ import annotations

import math

import numpy as np

from ._search import preserves_tables
from .core import FiniteBiquandle, FiniteQuandle
from .errors import DomainError
from .groups import FiniteGroup, GroupAutomorphism, commute, is_central_automorphism

# the largest n the size-parametrised constructors build: an n x n int64
# table is 128 MB at 4,096, and construction holds several
MAX_ORDER = 4096


def _check_order(n):
    """DomainError unless 1 <= n <= MAX_ORDER, before any table is built."""
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"need 1 <= n <= {MAX_ORDER}, the ceiling for constructed tables; got n={n}")


def trivial_quandle(n) -> FiniteQuandle:
    """x*y = x: every column is the identity, so q1, r1 and r2 hold."""
    _check_order(n)
    return FiniteQuandle._proven(np.broadcast_to(np.arange(n)[:, None], (n, n)).copy())


def conj_quandle(g: FiniteGroup, n=1) -> FiniteQuandle:
    """x*y = y^{-n} x y^n: column y is conjugation by y^n, an automorphism of
    g, so it is a bijection (r1) and distributes over the operation (r2), and
    x*x = x (q1)."""
    yn = np.array([g.power(y, n) for y in range(g.n)], dtype=np.int64)
    x = np.arange(g.n)[:, None]
    return FiniteQuandle._proven(g.mul[g.mul[g.inv[yn], x], yn])


def core_quandle(g: FiniteGroup) -> FiniteQuandle:
    """x*y = y x^{-1} y: the core quandle, a quandle on every group (Joyce,
    A classifying invariant of knots, the knot quandle, 1982)."""
    y = np.arange(g.n)
    return FiniteQuandle._proven(g.mul[g.mul[y, g.inv[:, None]], y])


def takasaki(g: FiniteGroup) -> FiniteQuandle:
    """Core quandle of an abelian group."""
    if not g.is_abelian():
        raise DomainError("takasaki quandle needs an abelian group")
    return core_quandle(g)


def dihedral_quandle(n) -> FiniteQuandle:
    """Takasaki quandle of Z_n: x*y = 2y - x mod n, the core quandle of the
    abelian group Z_n (Takasaki 1943)."""
    _check_order(n)
    a = np.arange(n)
    return FiniteQuandle._proven((2 * a[None, :] - a[:, None]) % n)


def alexander_quandle(g: FiniteGroup, phi: GroupAutomorphism) -> FiniteQuandle:
    """x*y = phi(x y^{-1}) y: a quandle on every group for every automorphism
    phi, the generalised Alexander quandle (Joyce 1982)."""
    if not preserves_tables(phi.images, [g.mul]):
        raise DomainError("phi is not an automorphism")
    ph = np.array(phi.images, dtype=np.int64)
    a = np.arange(g.n)  # [x, y] from a[:, None] and a
    return FiniteQuandle._proven(g.mul[ph[g.mul[a[:, None], g.inv]], a])


def wada_biquandle(g: FiniteGroup) -> FiniteBiquandle:
    """x u y = y^{-1} x^{-1} y,  x o y = y^{-2} x: Wada's biquandle, one on
    every group (Wada 1992; Bardakov, Nasybullov and Singh 2019)."""
    a = np.arange(g.n)  # [x, y]: x varies down the rows, y along them
    under = g.mul[g.mul[g.inv, g.inv[:, None]], a]
    over = g.mul[g.mul[g.inv, g.inv], a[:, None]]
    return FiniteBiquandle._proven(under, over)


def gen_dihedral_biquandle(g: FiniteGroup, phi: GroupAutomorphism) -> FiniteBiquandle:
    """x u y = phi(y) x^{-1} y,  x o y = phi(x); needs phi central.

    For a central automorphism phi this is a biquandle on every group, the
    generalised dihedral biquandle (Bardakov, Nasybullov and Singh 2019)."""
    if not preserves_tables(phi.images, [g.mul]):
        raise DomainError("phi is not an automorphism")
    if not is_central_automorphism(g, phi):
        raise DomainError("phi must be a central automorphism")
    n = g.n
    ph = np.array(phi.images, dtype=np.int64)
    under = g.mul[g.mul[ph, g.inv[:, None]], np.arange(n)]
    over = np.broadcast_to(ph[:, None], (n, n)).copy()
    return FiniteBiquandle._proven(under, over)


def gen_alexander_biquandle(g: FiniteGroup, phi: GroupAutomorphism, psi: GroupAutomorphism) -> FiniteBiquandle:
    """x u y = phi(x y^{-1}) psi(y),  x o y = psi(x); needs phi psi = psi phi.

    For commuting automorphisms phi and psi this is a biquandle on every
    group, the generalised Alexander biquandle (Bardakov, Nasybullov and
    Singh 2019)."""
    if not commute(phi, psi):
        raise DomainError("phi and psi must commute")
    for name, f in (("phi", phi), ("psi", psi)):
        if not preserves_tables(f.images, [g.mul]):
            raise DomainError(f"{name} is not an automorphism")
    n = g.n
    ph = np.array(phi.images, dtype=np.int64)
    ps = np.array(psi.images, dtype=np.int64)
    under = g.mul[ph[g.mul[np.arange(n)[:, None], g.inv]], ps]
    over = np.broadcast_to(ps[:, None], (n, n)).copy()
    return FiniteBiquandle._proven(under, over)


def alexander_biquandle(n, s, t) -> FiniteBiquandle:
    """On Z_n: x u y = t x + (s - t) y,  x o y = s x, for units s, t: the
    generalised Alexander biquandle of Z_n with phi = t, psi = s, which
    commute (gen_alexander_biquandle)."""
    _check_order(n)
    if math.gcd(s, n) != 1 or math.gcd(t, n) != 1:
        raise DomainError(f"s={s} and t={t} must be units mod {n}")
    a = np.arange(n)
    under = (t * a[:, None] + (s - t) * a[None, :]) % n
    over = np.broadcast_to((s * a % n)[:, None], (n, n)).copy()
    return FiniteBiquandle._proven(under, over)


def exponent(g: FiniteGroup) -> int:
    """Least common multiple of element orders."""
    out = 1
    for x in range(g.n):
        out = math.lcm(out, g.element_order(x))
    return out
