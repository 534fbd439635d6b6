import hashlib
import itertools

import pytest

from biquandles._search import preserves_tables
from biquandles.errors import DomainError, MalformedInput
from biquandles.groups import (
    FiniteGroup,
    GroupAutomorphism,
    alternating_group_4,
    automorphism_group,
    center,
    commute,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    fixed_points,
    is_central_automorphism,
    is_fixed_point_free,
    quaternion_group,
    small_groups,
    symmetric_group,
)
from helpers import mult_auto
from verifier_oracle import centralizer_of_set


class TestConstructors:
    def test_cyclic(self):
        g = cyclic_group(5)
        assert g.mul[2, 4] == 1
        assert cyclic_group(1).n == 1

    def test_symmetric(self):
        assert symmetric_group(3).n == 6
        with pytest.raises(DomainError):
            symmetric_group(6)

    def test_direct_product(self):
        g = direct_product(cyclic_group(2), cyclic_group(3))
        assert g.n == 6 and g.is_abelian()

    def test_cap(self):
        with pytest.raises(DomainError):
            cyclic_group(100)
        cyclic_group(100, cap=128)

    def test_identity_and_inverses(self):
        for g in small_groups(8):
            assert g.op(g.e, 3 % g.n) == 3 % g.n
            for a in range(g.n):
                assert g.op(a, g.inverse(a)) == g.e

    def test_invalid_tables(self):
        with pytest.raises(DomainError):
            FiniteGroup([[0, 1], [0, 1]])
        with pytest.raises(MalformedInput):
            FiniteGroup([[0, 1]])

    def test_catalog_is_pairwise_nonisomorphic_by_order_profile(self):
        seen = {}
        for g in small_groups(12):
            profile = (g.n, tuple(sorted(g.element_order(x) for x in range(g.n))), g.is_abelian())
            # order profiles separate all types of order <= 12 except none
            assert profile not in seen, (g.name, seen[profile])
            seen[profile] = g.name

    def test_dicyclic_relations(self):
        g = dicyclic_group(3)
        a, b = 2, 1  # a = a^1 b^0, b = a^0 b^1
        assert g.element_order(a) == 6
        assert g.element_order(b) == 4
        assert g.op(g.op(b, a), g.inverse(b)) == g.inverse(a)


def digest(obj):
    """Short hash of repr(obj), to pin a long output."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class TestTablePins:
    """Multiplication tables pinned by hash to those the per-entry Python
    loops built before product_table and broadcasts replaced them."""

    @pytest.mark.parametrize(
        "k,pin",
        [
            (1, "db407f11d7ede59a"),
            (2, "c1b92cfd1182059c"),
            (3, "d306f7f3933e7339"),
            (4, "f94f617d1f8a461f"),
            (5, "bdb00be6b0d08f5d"),
        ],
    )
    def test_symmetric(self, k, pin):
        assert digest(symmetric_group(k, cap=120).mul.tolist()) == pin

    def test_small_groups(self):
        assert digest([g.mul.tolist() for g in small_groups(12)]) == "8bbb353d01e63fd1"

    def test_dicyclic(self):
        assert digest([dicyclic_group(k).mul.tolist() for k in range(2, 17)]) == "2ac4749c15d82df3"

    @pytest.mark.parametrize("k,pin", [(20, "350c2e20bed3b4b2"), (32, "12854cbbb1dc2766")])
    def test_dihedral(self, k, pin):
        # degree 32: base-32 ranks of the image rows would overflow int64
        assert digest(dihedral_group(k).mul.tolist()) == pin


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (cyclic_group(5), 4),
            (cyclic_group(2), 1),
            (symmetric_group(3), 6),
            (quaternion_group(), 24),
            (dihedral_group(4), 8),
            (alternating_group_4(), 24),
        ],
    )
    def test_orders(self, g, expected):
        assert len(automorphism_group(g)) == expected

    def test_closed_under_composition_and_inverse(self):
        for g in (cyclic_group(8), symmetric_group(3), quaternion_group()):
            auts = set(automorphism_group(g))
            assert GroupAutomorphism.identity(g.n) in auts
            for a in auts:
                assert a.inverse() in auts
            some = sorted(auts)[: min(6, len(auts))]
            for a in some:
                for b in some:
                    assert a * b in auts

    @pytest.mark.parametrize("g", small_groups(7), ids=lambda g: g.name)
    def test_matches_bruteforce_in_order(self, g):
        # list positions matter: the CLI's --phi/--psi index into this list
        brute = [p for p in itertools.permutations(range(g.n)) if preserves_tables(p, [g.mul])]
        assert [a.images for a in automorphism_group(g)] == brute

    def test_preserves_tables_needs_a_bijection(self):
        g = cyclic_group(3)
        assert preserves_tables((0, 2, 1), [g.mul])
        assert not preserves_tables((0, 1, 1), [g.mul])
        assert not preserves_tables((0, 1), [g.mul])
        assert not preserves_tables((1, 2, 0), [g.mul])

    def test_preserve_multiplication(self):
        g = dihedral_group(4)
        for a in automorphism_group(g):
            for x in range(g.n):
                for y in range(g.n):
                    assert a(g.op(x, y)) == g.op(a(x), a(y))


class TestCenterAndPredicates:
    def test_center(self):
        assert center(cyclic_group(6)) == list(range(6))
        assert center(symmetric_group(3)) == [symmetric_group(3).e]
        assert len(center(quaternion_group())) == 2

    def test_abelian_automorphisms_central(self):
        g = cyclic_group(9)
        for a in automorphism_group(g):
            assert is_central_automorphism(g, a)

    def test_identity_always_central(self):
        s3 = symmetric_group(3)
        assert is_central_automorphism(s3, GroupAutomorphism.identity(6))

    def test_non_automorphisms_are_not_central(self):
        # on an abelian group x^{-1} phi(x) is central for every bijection
        # phi, so only the automorphism test refuses x -> x + 1 on Z_5
        z5 = cyclic_group(5)
        aut = {f.images for f in automorphism_group(z5)}
        for images in itertools.permutations(range(5)):
            assert is_central_automorphism(z5, GroupAutomorphism(images)) == (images in aut)

    @pytest.mark.parametrize("images", [(1, 0, 2), tuple(range(7))])
    def test_wrong_degree_is_not_central(self, images):
        assert not is_central_automorphism(cyclic_group(5), GroupAutomorphism(images))

    def test_inner_by_transposition_not_central(self):
        s3 = symmetric_group(3)
        t = next(x for x in range(s3.n) if s3.element_order(x) == 2)
        inner = GroupAutomorphism(tuple(s3.conjugate(x, t) for x in range(s3.n)))
        assert not is_central_automorphism(s3, inner)

    def test_fixed_points(self):
        z5 = cyclic_group(5)
        x2 = mult_auto(z5, 2)
        assert fixed_points(z5, x2) == [0]
        assert is_fixed_point_free(z5, x2)
        ident = GroupAutomorphism.identity(5)
        assert fixed_points(z5, ident) == list(range(5))
        assert not is_fixed_point_free(z5, ident)

    def test_fix_subgroup_order_divides_for_abelian(self):
        for g in (cyclic_group(8), cyclic_group(12), direct_product(cyclic_group(2), cyclic_group(4))):
            for a in automorphism_group(g):
                assert g.n % len(fixed_points(g, a)) == 0

    def test_commute_and_centralizer(self):
        z5 = cyclic_group(5)
        assert commute(mult_auto(z5, 2), mult_auto(z5, 3))
        auts = automorphism_group(z5)
        assert centralizer_of_set(auts, [mult_auto(z5, 2)]) == auts
        s3 = symmetric_group(3)
        auts3 = automorphism_group(s3)
        inner = [a for a in auts3 if not a == GroupAutomorphism.identity(6)]
        got = centralizer_of_set(auts3, [inner[0]])
        assert all(a * inner[0] == inner[0] * a for a in got)
