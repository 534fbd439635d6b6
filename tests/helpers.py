"""Shared constructions for the test suite."""

import math

import numpy as np

from biquandles.core import FiniteQuandle, Permutation, biquandle_of_quandle
from biquandles.group_constructions import (
    alexander_biquandle,
    alexander_quandle,
    conj_quandle,
    core_quandle,
    dihedral_quandle,
    exponent,
    gen_alexander_biquandle,
    gen_dihedral_biquandle,
    takasaki,
    trivial_quandle,
    wada_biquandle,
)
from biquandles.groups import automorphism_group, commute, is_central_automorphism, small_groups


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


def constructed_biquandles_over_groups(max_order):
    """Every biquandle constructor over every group of order <= max_order
    and all admissible parameters, plus the embedded quandle families."""
    out = []
    for g in small_groups(max_order):
        auts = automorphism_group(g)
        out.append(wada_biquandle(g))
        for phi in auts:
            if is_central_automorphism(g, phi):
                out.append(gen_dihedral_biquandle(g, phi))
        for phi in auts:
            for psi in auts:
                if commute(phi, psi):
                    out.append(gen_alexander_biquandle(g, phi, psi))
        for k in range(exponent(g)):
            out.append(biquandle_of_quandle(conj_quandle(g, k)))
        out.append(biquandle_of_quandle(core_quandle(g)))
        if g.is_abelian():
            out.append(biquandle_of_quandle(takasaki(g)))
        for phi in auts:
            out.append(biquandle_of_quandle(alexander_quandle(g, phi)))
    for n in range(1, max_order + 1):
        out.append(biquandle_of_quandle(trivial_quandle(n)))
        units = [s for s in range(1, n + 1) if math.gcd(s, n) == 1]
        for s in units:
            for t in units:
                out.append(alexander_biquandle(n, s, t))
    return out
