"""Shared constructions for the test suite."""

import numpy as np

from biquandles.core import FiniteQuandle, Permutation
from biquandles.group_constructions import dihedral_quandle
from biquandles.groups import automorphism_group


def mult_auto(g, m):
    """The multiplication-by-m automorphism of a cyclic group."""
    for a in automorphism_group(g):
        if a(1) == m % g.n:
            return a
    raise AssertionError(f"x{m} is not an automorphism of {g.name}")


def projection_quandle():
    """(x, a) * (y, b) = (x*y, a) on R3 x {0, 1}, indexed 2x + a."""
    r3 = dihedral_quandle(3)
    t = np.empty((6, 6), dtype=np.int64)
    for x in range(3):
        for a in range(2):
            for y in range(3):
                for b in range(2):
                    t[2 * x + a, 2 * y + b] = 2 * r3.op(x, y) + a
    return FiniteQuandle(t)


def mulclose(gens, degree):
    """Closure of a set of permutations under composition (includes id),
    by products of Permutation objects: the oracle for the library's
    closure on image rows."""
    els = {Permutation.identity(degree)}
    bdy = list(set(gens))
    els.update(bdy)
    while bdy:
        new = []
        for g in gens:
            for h in bdy:
                p = g * h
                if p not in els:
                    els.add(p)
                    new.append(p)
        bdy = new
    return els


def cycle(n):
    """The full cycle i -> i+1 on n points."""
    return Permutation(tuple((i + 1) % n for i in range(n)))
