import itertools

import numpy as np
import pytest

from biquandles.core import (
    Permutation,
    associated_quandle,
    biquandle_of_quandle,
    check_biquandle,
    check_quandle,
    check_ybe,
    is_connected,
    is_faithful,
)
from biquandles.errors import DomainError, MalformedInput
from biquandles.groups import (
    GroupAutomorphism,
    automorphism_group,
    commute,
    cyclic_group,
    is_central_automorphism,
    small_groups,
    symmetric_group,
)
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
from helpers import mult_auto


class TestQuandleFamilies:
    def test_trivial(self):
        assert np.array_equal(trivial_quandle(2).table, [[0, 0], [1, 1]])
        with pytest.raises(DomainError):
            trivial_quandle(0)

    def test_conj_examples(self):
        s3 = symmetric_group(3)
        assert conj_quandle(s3, 0) == trivial_quandle(6)
        assert conj_quandle(cyclic_group(7), 1) == trivial_quandle(7)
        q = conj_quandle(s3, 1)
        assert check_quandle(q.table).passed

    def test_conj_negative_exponent(self):
        s3 = symmetric_group(3)
        q = conj_quandle(s3, -1)
        for x in range(6):
            for y in range(6):
                assert q.op(x, y) == s3.op(s3.op(y, x), s3.inverse(y))

    def test_conj_depends_on_exponent_mod_group_exponent(self):
        for g in (cyclic_group(6), symmetric_group(3)):
            e = exponent(g)
            for k in (-2, 0, 1, 3):
                assert conj_quandle(g, k) == conj_quandle(g, k + e)

    def test_conj_huge_exponent_reduces_modulo_the_group_exponent(self):
        # power reduces k modulo the element order instead of looping k times
        k = 10**9 + 1
        for g in (cyclic_group(5), symmetric_group(3)):
            assert conj_quandle(g, k) == conj_quandle(g, k % exponent(g))

    def test_dihedral(self):
        assert np.array_equal(dihedral_quandle(3).table, [[0, 2, 1], [2, 1, 0], [1, 0, 2]])
        assert dihedral_quandle(3) == takasaki(cyclic_group(3))
        r5 = dihedral_quandle(5)
        assert is_connected(r5) and is_faithful(r5)

    def test_core_of_z2_trivial(self):
        assert core_quandle(cyclic_group(2)) == trivial_quandle(2)

    def test_takasaki_rejects_nonabelian(self):
        with pytest.raises(DomainError):
            takasaki(symmetric_group(3))

    def test_alexander(self):
        z5 = cyclic_group(5)
        assert alexander_quandle(z5, mult_auto(z5, 4)) == dihedral_quandle(5)
        z3 = cyclic_group(3)
        assert alexander_quandle(z3, mult_auto(z3, 2)) == dihedral_quandle(3)
        assert alexander_quandle(z5, GroupAutomorphism.identity(5)) == trivial_quandle(5)

    def test_alexander_rejects_non_automorphism(self):
        z4 = cyclic_group(4)
        with pytest.raises(DomainError):
            alexander_quandle(z4, GroupAutomorphism((0, 2, 1, 3)))


class TestBiquandleFamilies:
    def test_wada_formulas_on_z3(self):
        w = wada_biquandle(cyclic_group(3))
        a = np.arange(3)
        assert np.array_equal(w.under, (-a[:, None] + 0 * a[None, :]) % 3)
        assert np.array_equal(w.over, (a[:, None] - 2 * a[None, :]) % 3)

    def test_wada_on_z2(self):
        w = wada_biquandle(cyclic_group(2))
        assert np.array_equal(w.under, [[0, 0], [1, 1]])
        assert np.array_equal(w.over, [[0, 0], [1, 1]])

    def test_gen_dihedral_identity_twist(self):
        b = gen_dihedral_biquandle(cyclic_group(4), GroupAutomorphism.identity(4))
        assert np.array_equal(b.under, dihedral_quandle(4).table)
        assert np.array_equal(b.over, trivial_quandle(4).table)

    def test_gen_dihedral_rejects_non_central(self):
        s3 = symmetric_group(3)
        t = next(x for x in range(6) if s3.element_order(x) == 2)
        inner = GroupAutomorphism(tuple(s3.conjugate(x, t) for x in range(6)))
        with pytest.raises(DomainError):
            gen_dihedral_biquandle(s3, inner)

    def test_gen_alexander_rejects_non_commuting(self):
        s3 = symmetric_group(3)
        auts = automorphism_group(s3)
        pair = next(
            ((a, b) for a in auts for b in auts if not commute(a, b)),
            None,
        )
        assert pair is not None
        with pytest.raises(DomainError):
            gen_alexander_biquandle(s3, *pair)

    def test_alexander_biquandle_values(self):
        b = alexander_biquandle(5, 3, 2)
        assert b.under[1, 0] == 2 and b.over[1, 0] == 3

    def test_alexander_biquandle_unit_check(self):
        with pytest.raises(DomainError):
            alexander_biquandle(6, 2, 1)

    def test_alexander_s_t_one_is_embedded_trivial(self):
        assert alexander_biquandle(4, 1, 1) == biquandle_of_quandle(trivial_quandle(4))


class TestAssociatedQuandleIdentities:
    @pytest.mark.parametrize("g", small_groups(12), ids=lambda g: g.name)
    def test_wada_associates_to_core(self, g):
        assert associated_quandle(wada_biquandle(g)) == core_quandle(g)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_alexander_biquandle_associates_to_alexander_quandle(self, n):
        units = [s for s in range(1, n) if np.gcd(s, n) == 1]
        zn = cyclic_group(n)
        for s in units:
            sinv = pow(s, -1, n)
            for t in units:
                b = alexander_biquandle(n, s, t)
                assert associated_quandle(b) == alexander_quandle(zn, mult_auto(zn, t * sinv))


class TestParameterSweep:
    """Constructor outputs are validated at construction; sweeping the
    admissible parameters over the order-<=12 catalog exercises them all."""

    @pytest.mark.parametrize("g", small_groups(12), ids=lambda g: g.name)
    def test_group_derived_families(self, g):
        e = exponent(g)
        for k in range(e):
            conj_quandle(g, k)
        core_quandle(g)
        if g.is_abelian():
            takasaki(g)
        auts = automorphism_group(g)
        for phi in auts:
            alexander_quandle(g, phi)
        wada_biquandle(g)
        for phi in auts:
            if is_central_automorphism(g, phi):
                gen_dihedral_biquandle(g, phi)
        for phi in auts:
            for psi in auts:
                if commute(phi, psi):
                    gen_alexander_biquandle(g, phi, psi)

    def test_every_small_biquandle_satisfies_ybe(self):
        for g in small_groups(6):
            assert check_ybe(wada_biquandle(g))
            b = biquandle_of_quandle(core_quandle(g))
            assert check_ybe(b)


class TestWrongDegreeMaps:
    """A map whose degree is not |G| is refused with the text
    alexander_quandle gives, not a numpy error."""

    def test_gen_dihedral(self):
        for images in [(1, 0, 2), tuple(range(7))]:
            with pytest.raises(DomainError, match="^phi is not an automorphism$"):
                gen_dihedral_biquandle(cyclic_group(5), Permutation(images))

    @pytest.mark.parametrize("degree", [3, 7])
    def test_gen_alexander(self, degree):
        f = Permutation(tuple(range(degree)))
        with pytest.raises(DomainError, match="^phi is not an automorphism$"):
            gen_alexander_biquandle(cyclic_group(5), f, f)

    def test_alexander_quandle_gives_the_same_text(self):
        with pytest.raises(DomainError, match="^phi is not an automorphism$"):
            alexander_quandle(cyclic_group(5), Permutation((1, 0, 2)))

    def test_mixed_degrees_keep_the_commute_error(self):
        z5 = cyclic_group(5)
        phi = automorphism_group(z5)[1]
        with pytest.raises(MalformedInput, match="^permutation degree mismatch: 5 and 3$"):
            gen_alexander_biquandle(z5, phi, Permutation((0, 2, 1)))


class TestNonAutomorphisms:
    """phi and psi are checked as automorphisms of G before any table is
    built: a bijection of the right degree that is not one is refused by
    name, whether or not the tables it gives happen to be biquandles."""

    def test_accepted_maps_of_z5_are_its_automorphisms(self):
        # x -> x + 1 among them: it is central on an abelian group, and its
        # gen-dihedral tables were accepted as a biquandle
        z5 = cyclic_group(5)
        aut = {f.images for f in automorphism_group(z5)}
        identity = Permutation.identity(5)
        for images in itertools.permutations(range(5)):
            f = Permutation(images)
            builds = [
                ("phi", lambda: gen_dihedral_biquandle(z5, f)),
                ("phi", lambda: gen_alexander_biquandle(z5, f, identity)),
                ("psi", lambda: gen_alexander_biquandle(z5, identity, f)),
            ]
            for name, build in builds:
                if images in aut:
                    build()
                else:
                    with pytest.raises(DomainError, match=f"^{name} is not an automorphism$"):
                        build()

    def test_non_automorphism_of_s3(self):
        s3 = symmetric_group(3)
        swap = list(range(6))
        swap[1], swap[2] = swap[2], swap[1]
        f = Permutation(tuple(swap))
        assert f.images not in {a.images for a in automorphism_group(s3)}
        with pytest.raises(DomainError, match="^phi is not an automorphism$"):
            gen_dihedral_biquandle(s3, f)
