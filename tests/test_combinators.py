import itertools

import numpy as np
import pytest

from biquandles.combinators import (
    conj_quandle_of_permgroup,
    holomorph_biquandle,
    involutory_union_check,
    product_biquandle,
    semidirect_biquandle,
    union_biquandle_constant,
    union_biquandle_general,
    union_quandle,
)
from biquandles.core import (
    Permutation,
    associated_quandle,
    biquandle_of_quandle,
    is_involutory_biquandle,
    orbits,
)
from biquandles.errors import DomainError, MalformedInput
from biquandles.group_constructions import dihedral_quandle, trivial_quandle
from biquandles.structures import biquandle_from_structure, constant_structure
from helpers import cycle


class TestUnionQuandle:
    def test_trivial_parts_make_trivial(self):
        assert union_quandle(trivial_quandle(2), trivial_quandle(2)) == trivial_quandle(4)

    def test_two_dihedral_parts(self):
        u = union_quandle(dihedral_quandle(3), dihedral_quandle(3))
        assert len(orbits(u)) == 2
        assert np.array_equal(u.table[:3, :3], dihedral_quandle(3).table)
        assert np.array_equal(u.table[3:, 3:], dihedral_quandle(3).table + 3)

    def test_dihedral_with_point(self):
        union_quandle(dihedral_quandle(3), trivial_quandle(1))

    def test_nontrivial_twists_on_trivial_parts(self):
        t2, t3 = trivial_quandle(2), trivial_quandle(3)
        sigma = tuple(cycle(3) for _ in range(2))
        tau = tuple(cycle(2) for _ in range(3))
        u = union_quandle(t2, t3, sigma, tau)
        # mixed products apply the twists
        assert u.op(0, 2) == 1  # tau swaps the first part
        assert u.op(2, 0) == 2 + 1  # sigma cycles the second part

    def test_condition_violation_reports_witness(self):
        r3 = dihedral_quandle(3)
        threecycle = cycle(3)
        with pytest.raises(DomainError, match="condition 1"):
            union_quandle(r3, r3, None, tuple(threecycle for _ in range(3)))

    def test_empty_family_is_a_length_error(self):
        # an empty family stacks as a (0, n) array of rows
        with pytest.raises(DomainError, match="must have length"):
            union_quandle(trivial_quandle(2), trivial_quandle(3), ())


class TestUnionBiquandleGeneral:
    def test_constant_maps_match_constant_builder(self):
        q1, q2 = trivial_quandle(2), trivial_quandle(2)
        f = cycle(2)
        g = cycle(2)
        s = union_biquandle_general(q1, q2, tuple(g for _ in range(2)), tuple(f for _ in range(2)))
        assert biquandle_from_structure(s) == union_biquandle_constant(q1, q2, f, g)

    def test_compatibility_violation_rejected(self):
        # phi depends on the point while psi moves points: phi_{x} must
        # equal phi_{psi_y(x)}
        t2 = trivial_quandle(2)
        phi = (Permutation.identity(2), cycle(2))
        psi = (cycle(2), cycle(2))
        with pytest.raises(DomainError, match="phi"):
            union_biquandle_general(t2, t2, phi, psi)


class TestUnionBiquandleConstant:
    def test_identity_twists_embed_the_union(self):
        q1, q2 = dihedral_quandle(3), trivial_quandle(2)
        b = union_biquandle_constant(q1, q2, Permutation.identity(3), Permutation.identity(2))
        assert b == biquandle_of_quandle(union_quandle(q1, q2))

    def test_mixed_rules(self):
        t2 = trivial_quandle(2)
        b = union_biquandle_constant(t2, t2, cycle(2), cycle(2))
        # across parts both operations apply the twist of the acting side
        assert b.under[0, 2] == 1 and b.over[0, 2] == 1
        assert b.under[2, 0] == 3 and b.over[2, 0] == 3

    def test_r3_parts_with_cycle(self):
        r3 = dihedral_quandle(3)
        union_biquandle_constant(r3, r3, Permutation.identity(3), cycle(3))

    def test_rejects_non_automorphism(self):
        with pytest.raises(DomainError):
            union_biquandle_constant(dihedral_quandle(4), trivial_quandle(2), Permutation((1, 0, 2, 3)), Permutation.identity(2))

    def test_rejects_non_permutation(self):
        r3 = dihedral_quandle(3)
        with pytest.raises(MalformedInput, match="f is not a Permutation"):
            union_biquandle_constant(r3, r3, (0, 1, 2), Permutation.identity(3))
        with pytest.raises(MalformedInput, match="g is not a Permutation"):
            union_biquandle_constant(r3, r3, Permutation.identity(3), (0, 1, 2))


class TestInvolutoryUnion:
    def test_identity_on_involutory_parts(self):
        r3 = dihedral_quandle(3)
        phi = tuple(Permutation.identity(3) for _ in range(3))
        assert involutory_union_check(r3, r3, phi, phi)
        b = union_biquandle_constant(r3, r3, Permutation.identity(3), Permutation.identity(3))
        assert is_involutory_biquandle(b)

    def test_two_cycles_on_t2(self):
        t2 = trivial_quandle(2)
        maps = tuple(cycle(2) for _ in range(2))
        assert involutory_union_check(t2, t2, maps, maps)
        assert is_involutory_biquandle(union_biquandle_constant(t2, t2, cycle(2), cycle(2)))

    def test_three_cycles_fail(self):
        t3 = trivial_quandle(3)
        maps = tuple(cycle(3) for _ in range(3))
        assert not involutory_union_check(t3, t3, maps, maps)


class TestProductBiquandle:
    def test_trivial_maps_give_plain_product(self):
        q1, q2 = dihedral_quandle(3), dihedral_quandle(3)
        ident1 = tuple(Permutation.identity(3) for _ in range(3))
        b = product_biquandle(q1, q2, ident1, ident1, case=2)
        # (x,a) u (y,b) = (x*y, a); (x,a) o (y,b) = (x, a*b)
        for x, a, y, bb in itertools.product(range(3), repeat=4):
            i, j = x * 3 + a, y * 3 + bb
            assert b.under[i, j] == q1.op(x, y) * 3 + a
            assert b.over[i, j] == x * 3 + q2.op(a, bb)

    def test_associated_quandle_formula(self):
        q1, q2 = dihedral_quandle(3), dihedral_quandle(5)
        phi = tuple(Permutation.identity(5) for _ in range(3))
        psi = tuple(Permutation.identity(3) for _ in range(5))
        b = product_biquandle(q1, q2, phi, psi, case=2)
        q = associated_quandle(b)
        for x, a, y, bb in itertools.product(range(3), range(5), range(3), range(5)):
            assert q.op(x * 5 + a, y * 5 + bb) == q1.op(x, y) * 5 + q2.op_inv(a, bb)

    def test_trivial_factors_product_is_trivial_quandle(self):
        t2 = trivial_quandle(2)
        psi = tuple(cycle(2) for _ in range(2))
        phi = tuple(Permutation.identity(2) for _ in range(2))
        b = product_biquandle(t2, t2, phi, psi, case=2)
        assert associated_quandle(b) == trivial_quandle(4)

    def test_case1_constant_psi(self):
        t2 = trivial_quandle(2)
        psi = tuple(cycle(2) for _ in range(2))
        phi = tuple(Permutation.identity(2) for _ in range(2))
        product_biquandle(t2, t2, phi, psi, case=1)

    def test_case_hypothesis_failure(self):
        t2 = trivial_quandle(2)
        psi = (Permutation.identity(2), cycle(2))
        phi = tuple(Permutation.identity(2) for _ in range(2))
        with pytest.raises(DomainError, match="constant"):
            product_biquandle(t2, t2, phi, psi, case=1)


class TestSemidirect:
    def test_point_factor_matches_constant_structure(self):
        r3 = dihedral_quandle(3)
        f = cycle(3)
        b = semidirect_biquandle(r3, trivial_quandle(1), (f,))
        expect = biquandle_from_structure(constant_structure(r3, f))
        assert b == expect

    def test_constant_involution(self):
        r3 = dihedral_quandle(3)
        s = Permutation((0, 2, 1))
        semidirect_biquandle(r3, trivial_quandle(2), (s, s))

    def test_rejects_non_homomorphism(self):
        r3 = dihedral_quandle(3)
        # values must be constant on T_2 orbits? any pair works for T_2
        # since it is trivial; a genuinely bad psi must break h(x*y) rule,
        # which needs a nontrivial Q2: use R_3 as Q2 with a non-equivariant map
        bad = (Permutation.identity(3), Permutation.identity(3), cycle(3))
        with pytest.raises(DomainError):
            semidirect_biquandle(r3, dihedral_quandle(3), bad)


class TestHolomorph:
    def test_sizes(self):
        assert holomorph_biquandle(trivial_quandle(1)).n == 1
        assert holomorph_biquandle(dihedral_quandle(3)).n == 18
        assert holomorph_biquandle(dihedral_quandle(5)).n == 100

    def test_operation_formulas(self):
        q = dihedral_quandle(3)
        hol = holomorph_biquandle(q)
        _, auts = conj_quandle_of_permgroup(
            __import__("biquandles.automorphisms", fromlist=["quandle_aut"]).quandle_aut(q).elements
        )
        na = len(auts)
        idx = {a: i for i, a in enumerate(auts)}
        for x, i, y, j in itertools.product(range(3), range(na), range(3), range(na)):
            f, g = auts[i], auts[j]
            assert hol.under[x * na + i, y * na + j] == g(q.op(x, y)) * na + i
            assert hol.over[x * na + i, y * na + j] == g(x) * na + idx[g * f * g.inverse()]


class TestCombinedSizeSweep:
    def test_union_and_product_outputs_validate(self):
        # constructors validate at construction; a spread of inputs up to
        # combined size 20 exercises the axiom suite
        parts = [trivial_quandle(2), trivial_quandle(3), dihedral_quandle(3), dihedral_quandle(5)]
        for q1, q2 in itertools.product(parts, repeat=2):
            if q1.n + q2.n <= 20:
                union_quandle(q1, q2)
                union_biquandle_constant(q1, q2, Permutation.identity(q1.n), Permutation.identity(q2.n))
            if q1.n * q2.n <= 20:
                psi = tuple(Permutation.identity(q1.n) for _ in range(q2.n))
                semidirect_biquandle(q1, q2, psi)
