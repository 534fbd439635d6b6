import numpy as np
import pytest

from biquandles.core import (
    associated_quandle,
    biquandle_of_quandle,
    check_biquandle,
    check_quandle,
    check_ybe,
    is_connected,
    is_faithful,
)
from biquandles.errors import DomainError
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
