"""Finite groups as multiplication tables, with automorphism machinery.

Identity and inverses are derived from the table, never stored in the JSON
form ({"n": ..., "mul": ...}).  Groups are capped at order DEFAULT_ORDER_CAP
by default since every consumer is exhaustive.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._search import table_bijections
from .core import Permutation, as_table, mulclose
from .errors import DomainError, MalformedInput

DEFAULT_ORDER_CAP = 64


class FiniteGroup:
    """A finite group given by its multiplication table."""

    __slots__ = ("n", "mul", "e", "inv", "name")

    def __init__(self, mul, name=None):
        t = as_table(mul, "mul")
        n = t.shape[0]
        if t.min() < 0 or t.max() >= n:
            raise MalformedInput("mul entries out of range")
        # two-sided identity
        e = None
        for i in range(n):
            if np.array_equal(t[i], np.arange(n)) and np.array_equal(t[:, i], np.arange(n)):
                e = i
                break
        if e is None:
            raise DomainError("no two-sided identity")
        # associativity on all triples: t[t[a,b], c] == t[a, t[b,c]]
        if not np.array_equal(t[t], t[:, t]):
            raise DomainError("multiplication is not associative")
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.flatnonzero(t[a] == e)
            if hits.size != 1 or t[hits[0], a] != e:
                raise DomainError(f"element {a} has no two-sided inverse")
            inv[a] = hits[0]
        inv.setflags(write=False)
        self.n = n
        self.mul = t
        self.e = e
        self.inv = inv
        self.name = name or f"group{n}"

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

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and np.array_equal(self.mul, other.mul)

    def __hash__(self):
        return hash(self.mul.tobytes())

    def __repr__(self):
        return f"FiniteGroup({self.name}, n={self.n})"

    def to_dict(self):
        return {"n": self.n, "mul": self.mul.tolist()}

    @staticmethod
    def from_dict(d):
        try:
            n, mul = d["n"], d["mul"]
        except (KeyError, TypeError):
            raise MalformedInput("group JSON needs keys 'n' and 'mul'") from None
        g = FiniteGroup(mul)
        if g.n != n:
            raise MalformedInput(f"declared n={n} but table is {g.n}x{g.n}")
        return g


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


def symmetric_group(k, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    if k < 1 or k > 5:
        raise DomainError("symmetric groups supported for 1 <= k <= 5")
    perms = sorted(itertools.permutations(range(k)))
    _check_cap(len(perms), cap)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mul = np.empty((n, n), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            # product p*q acts as x -> p[q[x]]
            mul[i, j] = index[tuple(p[q[x]] for x in range(k))]
    return FiniteGroup(mul, name=f"S{k}")


def direct_product(g: FiniteGroup, h: FiniteGroup, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Product group on pairs, indexed (a, b) -> a*|h| + b."""
    n = g.n * h.n
    _check_cap(n, cap)
    mul = np.empty((n, n), dtype=np.int64)
    for a1 in range(g.n):
        for b1 in range(h.n):
            i = a1 * h.n + b1
            mul[i] = (g.mul[a1][:, None] * h.n + h.mul[b1][None, :]).ravel()
    return FiniteGroup(mul, name=f"{g.name}x{h.name}")


def group_from_permutations(gens, degree, name=None, cap=DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The group generated by permutations, as an abstract mul table.

    Elements are indexed in sorted order of their image tuples.
    """
    ordered = sorted(mulclose(gens, degree))
    _check_cap(len(ordered), cap)
    index = {p: i for i, p in enumerate(ordered)}
    n = len(ordered)
    mul = np.empty((n, n), dtype=np.int64)
    for i, p in enumerate(ordered):
        for j, q in enumerate(ordered):
            mul[i, j] = index[p * q]
    return FiniteGroup(mul, name=name)


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
    mul = np.empty((n, n), dtype=np.int64)
    for i in range(2 * k):
        for j in (0, 1):
            for p in range(2 * k):
                for q in (0, 1):
                    if j == 0:
                        r, s = (i + p) % (2 * k), q
                    elif q == 0:
                        r, s = (i - p) % (2 * k), 1
                    else:
                        r, s = (i - p + k) % (2 * k), 0
                    mul[2 * i + j, 2 * p + q] = 2 * r + s
    return FiniteGroup(mul, name=f"Dic{k}")


def quaternion_group() -> FiniteGroup:
    """The order-8 group {1, -1, i, -i, j, -j, k, -k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    sign = {x: (1 if not x.startswith("-") else -1) for x in names}
    base = {x: x.lstrip("-") for x in names}
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    idx = {x: i for i, x in enumerate(names)}
    mul = np.empty((8, 8), dtype=np.int64)
    for x in names:
        for y in names:
            s, b = table[(base[x], base[y])]
            s *= sign[x] * sign[y]
            mul[idx[x], idx[y]] = idx[b if s == 1 else "-" + b]
    return FiniteGroup(mul, name="Q8")


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
    return [Permutation.from_array(m) for m in table_bijections([g.mul], [g.mul])]


def center(g: FiniteGroup):
    """Indices commuting with everything."""
    return [int(z) for z in range(g.n) if np.array_equal(g.mul[z], g.mul[:, z])]


def is_central_automorphism(g: FiniteGroup, phi: GroupAutomorphism) -> bool:
    """x^{-1} phi(x) lies in the center for every x."""
    z = set(center(g))
    return all(g.op(g.inverse(x), phi(x)) in z for x in range(g.n))


def fixed_points(g: FiniteGroup, phi: GroupAutomorphism):
    return [x for x in range(g.n) if phi(x) == x]


def is_fixed_point_free(g: FiniteGroup, phi: GroupAutomorphism) -> bool:
    return fixed_points(g, phi) == [g.e]


def commute(phi: GroupAutomorphism, psi: GroupAutomorphism) -> bool:
    return phi * psi == psi * phi


def centralizer_of_set(autos, subset):
    """Members of an explicit automorphism list commuting with a subset."""
    subset = list(subset)
    return [a for a in autos if all(a * s == s * a for s in subset)]
