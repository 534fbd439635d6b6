"""Finite groups as multiplication tables, with automorphism machinery.

Identity and inverses are derived from the table, never stored in the JSON
form ({"n": ..., "mul": ...}).  Groups are capped at order DEFAULT_ORDER_CAP
by default since every consumer is exhaustive.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import _kernels
from ._search import preserves_tables, table_bijections
from .core import Permutation, PermutationGroup, _in_range, _keep, _TableObject, as_table, product_table
from .errors import DomainError, MalformedInput

DEFAULT_ORDER_CAP = 64


class FiniteGroup(_TableObject):
    """A finite group given by its multiplication table."""

    __slots__ = ("mul", "e", "inv", "name")
    _kind = "group"

    def __init__(self, mul, name=None):
        t = as_table(mul, "mul")
        n = t.shape[0]
        if not _in_range(t):
            raise MalformedInput("mul entries out of range")
        # two-sided identity
        e = None
        for i in range(n):
            if np.array_equal(t[i], np.arange(n)) and np.array_equal(t[:, i], np.arange(n)):
                e = i
                break
        if e is None:
            raise DomainError("no two-sided identity")
        # associativity on all triples, t[t[a,b], c] == t[a, t[b,c]], a
        # block of (a, b) rows at a time
        blocks = _kernels.walk(n, n, lambda a, b: t[t[a, b]] != t[a[:, None], t[b]])
        if _kernels.first_violation(blocks) is not None:
            raise DomainError("multiplication is not associative")
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.flatnonzero(t[a] == e)
            if hits.size != 1 or t[hits[0], a] != e:
                raise DomainError(f"element {a} has no two-sided inverse")
            inv[a] = hits[0]
        inv.setflags(write=False)
        self.n = n
        self.mul = _keep(t)
        self.e = e
        self.inv = inv
        self.name = name or f"group{n}"

    def _tables(self):
        return (self.mul,)

    def op(self, a, b):
        return int(self.mul[a, b])

    def inverse(self, a):
        return int(self.inv[a])

    def power(self, a, k):
        """a^k, with k reduced modulo the order of a (so k < 0 works too)."""
        r = self.e
        for _ in range(k % self.element_order(a)):
            r = self.op(r, a)
        return r

    def element_order(self, a):
        k, x = 1, a
        while x != self.e:
            x = self.op(x, a)
            k += 1
        return k

    def is_abelian(self):
        return bool(np.array_equal(self.mul, self.mul.T))

    def conjugate(self, x, y):
        """y^{-1} x y."""
        return self.op(self.op(self.inverse(y), x), y)

    def __repr__(self):
        return f"FiniteGroup({self.name}, n={self.n})"


# A group automorphism is a multiplication-preserving permutation of the
# elements; it is a plain Permutation.
GroupAutomorphism = Permutation


def _check_cap(n, cap):
    if n > cap:
        raise DomainError(f"group order {n} exceeds cap {cap}")


def cyclic_group(n, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise DomainError("order must be >= 1")
    _check_cap(n, cap)
    a = np.arange(n)
    return FiniteGroup((a[:, None] + a[None, :]) % n, name=f"Z{n}")


def _permutation_rows(n):
    """The one listing of S_n: its n! image rows in lexicographic order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(math.factorial(n), n)


def _symmetric_group(n):
    """The permutations of range(n) as tuples in lexicographic order, with
    index tables: comp[p][q] and inv[p] are the indices of p o q and of
    p^-1."""
    rows = _permutation_rows(n)
    comp, inv = product_table(rows)
    return list(map(tuple, rows.tolist())), comp.tolist(), inv.tolist()


def symmetric_group(k, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    if k < 1 or k > 5:
        raise DomainError("symmetric groups supported for 1 <= k <= 5")
    perms, comp, _ = _symmetric_group(k)
    _check_cap(len(perms), cap)
    return FiniteGroup(comp, name=f"S{k}")


def direct_product(g: FiniteGroup, h: FiniteGroup, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Product group on pairs, indexed (a, b) -> a*|h| + b."""
    n = g.n * h.n
    _check_cap(n, cap)
    # axes [a1, b1, a2, b2]: (a1, b1) times (a2, b2)
    mul = g.mul[:, None, :, None] * h.n + h.mul[None, :, None, :]
    return FiniteGroup(mul.reshape(n, n), name=f"{g.name}x{h.name}")


def group_from_permutations(gens, degree, name=None, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The group generated by permutations, as an abstract mul table.

    Elements are indexed in sorted order of their image tuples.
    """
    rows = PermutationGroup.generate(degree, gens).rows
    _check_cap(len(rows), cap)
    return FiniteGroup(product_table(rows)[0], name=name)


def dihedral_group(k, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Symmetries of a regular k-gon, order 2k."""
    if k < 2:
        raise DomainError("dihedral groups need k >= 2")
    rot = Permutation(tuple((i + 1) % k for i in range(k)))
    ref = Permutation(tuple((k - i) % k for i in range(k)))
    return group_from_permutations([rot, ref], k, name=f"D{k}", cap=cap)


def alternating_group_4() -> FiniteGroup:
    g1 = Permutation((1, 2, 0, 3))
    g2 = Permutation((0, 2, 3, 1))
    return group_from_permutations([g1, g2], 4, name="A4")


def dicyclic_group(k, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Order 4k, generated by a of order 2k and b with b^2 = a^k and
    b a b^{-1} = a^{-1}; elements indexed a^i b^j -> 2*i + j."""
    if k < 2:
        raise DomainError("dicyclic groups need k >= 2")
    n = 4 * k
    _check_cap(n, cap)
    # axes [i, j, p, q]: a^i b^j a^p b^q = a^(i -+ p (+k if j = q = 1)) b^(j xor q)
    i, p = np.arange(2 * k)[:, None, None, None], np.arange(2 * k)[None, None, :, None]
    j, q = np.arange(2)[None, :, None, None], np.arange(2)[None, None, None, :]
    r = (i + (1 - 2 * j) * p + j * q * k) % (2 * k)
    return FiniteGroup((2 * r + (j ^ q)).reshape(n, n), name=f"Dic{k}")


def quaternion_group() -> FiniteGroup:
    """The order-8 group {1, -1, i, -i, j, -j, k, -k}, indexed 2u + s for
    the unit u of (1, i, j, k) and the sign s (1 for minus)."""
    # the product of units u, v is the unit u xor v, negated where neg[u, v]
    neg = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    # axes [u, s, v, t]: (2u + s)(2v + t)
    u, v = np.arange(4)[:, None, None, None], np.arange(4)[None, None, :, None]
    s, t = np.arange(2)[None, :, None, None], np.arange(2)[None, None, None, :]
    mul = 2 * (u ^ v) + (s ^ t ^ neg[u, v])
    return FiniteGroup(mul.reshape(8, 8), name="Q8")


def small_groups(max_order=8):
    """One group per isomorphism type of order <= max_order (max 12)."""
    if max_order > 12:
        raise DomainError("catalog only covers orders <= 12")
    cat = [cyclic_group(1)]
    by_order = {
        2: [cyclic_group(2)],
        3: [cyclic_group(3)],
        4: [cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(2))],
        5: [cyclic_group(5)],
        6: [cyclic_group(6), symmetric_group(3)],
        7: [cyclic_group(7)],
        8: [
            cyclic_group(8),
            direct_product(cyclic_group(4), cyclic_group(2)),
            direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
            dihedral_group(4),
            quaternion_group(),
        ],
        9: [cyclic_group(9), direct_product(cyclic_group(3), cyclic_group(3))],
        10: [cyclic_group(10), dihedral_group(5)],
        11: [cyclic_group(11)],
        12: [
            cyclic_group(12),
            direct_product(cyclic_group(2), cyclic_group(6)),
            dihedral_group(6),
            alternating_group_4(),
            dicyclic_group(3),
        ],
    }
    for k in range(2, max_order + 1):
        cat.extend(by_order.get(k, []))
    return cat


# ---------------------------------------------------------------------------
# automorphisms


def automorphism_group(g: FiniteGroup):
    """All automorphisms, sorted by image tuple so list indices are
    deterministic."""
    return [Permutation.from_array(m) for m in table_bijections(g._side())]


def center(g: FiniteGroup):
    """Indices commuting with everything."""
    return [int(z) for z in range(g.n) if np.array_equal(g.mul[z], g.mul[:, z])]


def is_central_automorphism(g: FiniteGroup, phi: GroupAutomorphism) -> bool:
    """phi is an automorphism of g and x^{-1} phi(x) lies in the center for
    every x; False for a map of another degree."""
    if not preserves_tables(phi.images, [g.mul]):
        return False
    z = set(center(g))
    return all(g.op(g.inverse(x), phi(x)) in z for x in range(g.n))


def fixed_points(g: FiniteGroup, phi: GroupAutomorphism):
    return [x for x in range(g.n) if phi(x) == x]


def is_fixed_point_free(g: FiniteGroup, phi: GroupAutomorphism) -> bool:
    return fixed_points(g, phi) == [g.e]


def commute(phi: GroupAutomorphism, psi: GroupAutomorphism) -> bool:
    return phi * psi == psi * phi
