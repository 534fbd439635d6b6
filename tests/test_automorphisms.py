import hashlib

import pytest

from biquandles.automorphisms import (
    aut_psi_pairs,
    aut_psi_subgroup,
    biquandle_aut,
    centralizer,
    find_quandle_isomorphism,
    normalizer_of_family,
    product_H_subgroup,
    quandle_aut,
    union_quandle_aut,
    verify_constant_structure_aut,
    verify_gen_alexander_aut,
    verify_gen_dihedral_containment,
    verify_holomorph_aut,
    verify_product_aut_theorem,
    verify_sequence_cardinality,
    verify_structure_normalizer,
    verify_structure_normalizer_printed,
    verify_union_biquandle_aut,
)
from biquandles.combinators import holomorph_biquandle, semidirect_biquandle, union_biquandle_constant
from biquandles.core import Permutation, associated_quandle, biquandle_of_quandle, inner_group
from biquandles.errors import DomainError
from biquandles.groups import GroupAutomorphism, cyclic_group
from biquandles.enumeration import enumerate_quandles
from biquandles.group_constructions import (
    alexander_biquandle,
    conj_quandle,
    dihedral_quandle,
    trivial_quandle,
    wada_biquandle,
)
from biquandles.groups import symmetric_group
from helpers import mult_auto
from verifier_oracle import block_permutation


def ident_maps(n_target, count):
    return tuple(Permutation.identity(n_target) for _ in range(count))


class TestAutGroups:
    @pytest.mark.parametrize(
        "q,order",
        [
            (dihedral_quandle(3), 6),
            (dihedral_quandle(5), 20),
            (trivial_quandle(3), 6),
            (trivial_quandle(4), 24),
            (conj_quandle(symmetric_group(3)), 6),
        ],
    )
    def test_quandle_aut_orders(self, q, order):
        assert quandle_aut(q).order == order

    def test_biquandle_aut_of_embedded_r3(self):
        assert biquandle_aut(biquandle_of_quandle(dihedral_quandle(3))).order == 6

    def test_search_matches_permutation_filter_oracle(self):
        # independent oracle: filter all n! permutations directly
        import itertools

        import numpy as np

        from biquandles.enumeration import enumerate_quandles

        def oracle(tables):
            n = tables[0].shape[0]
            out = set()
            for perm in itertools.permutations(range(n)):
                img = np.array(perm, dtype=np.int64)
                if all(np.array_equal(img[t], t[np.ix_(img, img)]) for t in tables):
                    out.add(perm)
            return out

        for q in enumerate_quandles(4):
            got = {p.images for p in quandle_aut(q).elements}
            assert got == oracle([q.table])
        for b in (
            wada_biquandle(cyclic_group(5)),
            alexander_biquandle(5, 3, 2),
            union_biquandle_constant(trivial_quandle(2), trivial_quandle(3), Permutation((1, 0)), Permutation((1, 2, 0))),
        ):
            got = {p.images for p in biquandle_aut(b).elements}
            assert got == oracle([b.under, b.over])

    @pytest.mark.parametrize(
        "b",
        [
            wada_biquandle(cyclic_group(3)),
            wada_biquandle(cyclic_group(7)),
            wada_biquandle(symmetric_group(3)),
            wada_biquandle(cyclic_group(12)),
            alexander_biquandle(5, 3, 2),
            alexander_biquandle(12, 5, 7),
            union_biquandle_constant(trivial_quandle(2), trivial_quandle(2), Permutation((1, 0)), Permutation((1, 0))),
            union_biquandle_constant(dihedral_quandle(5), dihedral_quandle(7), Permutation.identity(5), Permutation.identity(7)),
            semidirect_biquandle(dihedral_quandle(3), trivial_quandle(4), tuple(Permutation.identity(3) for _ in range(4))),
            biquandle_of_quandle(conj_quandle(symmetric_group(3))),
        ],
    )
    def test_biquandle_aut_inside_quandle_aut(self, b):
        assert b.n <= 12
        ab = biquandle_aut(b)
        aq = quandle_aut(associated_quandle(b))
        assert ab.elements <= aq.elements

    def test_groups_are_closed_with_identity(self):
        for grp in (quandle_aut(dihedral_quandle(5)), biquandle_aut(wada_biquandle(cyclic_group(5)))):
            els = grp.elements
            assert Permutation.identity(grp.degree) in els
            for p in sorted(els)[:8]:
                assert p.inverse() in els
                for q in sorted(els)[:8]:
                    assert p * q in els


def listing(g):
    """A group's generators and its elements in order, as image tuples."""
    return [p.images for p in g.generators], [p.images for p in g]


def digest(obj):
    """Short hash of repr(obj), to pin a long output."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class TestListingPins:
    """Generators and element order pinned by hash to those the listing as a
    frozenset of Permutations, sorted on every read, gave."""

    @pytest.mark.parametrize(
        "n,aut_pin,inner_pin",
        [
            (3, "2ddaae7283673665", "1fecd36cddb934da"),
            (4, "57dd1046aa2a7f99", "10a1b99124db4c77"),
            (5, "531c2ce11d256b43", "898bea7b78ba21cc"),
        ],
    )
    def test_every_quandle_of_order_n(self, n, aut_pin, inner_pin):
        qs = enumerate_quandles(n)
        assert digest([listing(quandle_aut(q)) for q in qs]) == aut_pin
        assert digest([listing(inner_group(q)) for q in qs]) == inner_pin

    @pytest.mark.parametrize(
        "q,pin",
        [
            (trivial_quandle(6), "60443c7d852c5213"),
            (trivial_quandle(7), "f98163b6820e98b6"),
            (dihedral_quandle(7), "8858acc7104fbc33"),
        ],
        ids=["T6", "T7", "R7"],
    )
    def test_quandle_aut(self, q, pin):
        assert digest(listing(quandle_aut(q))) == pin

    @pytest.mark.parametrize("p,pin", [(3, "8be0fcd80a2fac28"), (5, "038a00be32e3fcd8")])
    def test_biquandle_aut_of_holomorph(self, p, pin):
        assert digest(listing(biquandle_aut(holomorph_biquandle(dihedral_quandle(p))))) == pin


class TestCentralizerNormalizer:
    def test_centralizer_of_identity_is_whole_group(self):
        g = quandle_aut(dihedral_quandle(3))
        assert centralizer(g, Permutation.identity(3)).order == g.order

    def test_centralizer_of_three_cycle(self):
        g = quandle_aut(dihedral_quandle(3))  # isomorphic to S_3
        threecycle = next(p for p in g.elements if p.cycle_type() == (3,))
        assert centralizer(g, threecycle).order == 3

    def test_centralizer_requires_membership(self):
        g = quandle_aut(dihedral_quandle(4))
        with pytest.raises(DomainError):
            centralizer(g, Permutation((1, 0, 2, 3)))

    def test_normalizer_of_identity_family(self):
        g = quandle_aut(dihedral_quandle(3))
        assert normalizer_of_family(g, [Permutation.identity(3)]).order == g.order


class TestConstantStructureAut:
    @pytest.mark.parametrize("q", [dihedral_quandle(3), dihedral_quandle(5), trivial_quandle(4)])
    def test_every_twist(self, q):
        for f in sorted(quandle_aut(q).elements):
            assert verify_constant_structure_aut(q, f)

    def test_four_cycle_on_t4(self):
        q = trivial_quandle(4)
        f = next(p for p in quandle_aut(q).elements if p.cycle_type() == (4,))
        b_aut = biquandle_aut(
            __import__("biquandles.structures", fromlist=["biquandle_from_structure"]).biquandle_from_structure(
                __import__("biquandles.structures", fromlist=["constant_structure"]).constant_structure(q, f)
            )
        )
        assert b_aut.order == 4


class TestGenDihedral:
    @pytest.mark.parametrize(
        "g,mult",
        [(cyclic_group(3), 1), (cyclic_group(5), 2), (cyclic_group(9), 2)],
    )
    def test_containment(self, g, mult):
        phi = mult_auto(g, mult) if mult != 1 else GroupAutomorphism.identity(g.n)
        assert verify_gen_dihedral_containment(g, phi)

    def test_rejects_even_order(self):
        with pytest.raises(DomainError):
            verify_gen_dihedral_containment(cyclic_group(4), GroupAutomorphism.identity(4))


class TestGenAlexander:
    def test_z5(self):
        z5 = cyclic_group(5)
        assert verify_gen_alexander_aut(z5, mult_auto(z5, 3), mult_auto(z5, 2))

    def test_z7(self):
        z7 = cyclic_group(7)
        assert verify_gen_alexander_aut(z7, mult_auto(z7, 3), mult_auto(z7, 2))

    def test_rejects_equal_pair(self):
        z5 = cyclic_group(5)
        with pytest.raises(DomainError):
            verify_gen_alexander_aut(z5, mult_auto(z5, 2), mult_auto(z5, 2))


class TestUnionQuandleAut:
    def test_nonisomorphic_parts(self):
        res = union_quandle_aut(dihedral_quandle(3), dihedral_quandle(5))
        assert res.group.order == 120 and not res.isomorphic and res.verified

    def test_isomorphic_parts(self):
        res = union_quandle_aut(dihedral_quandle(3), dihedral_quandle(3))
        assert res.group.order == 72 and res.isomorphic and res.verified

    def test_point_part(self):
        res = union_quandle_aut(dihedral_quandle(3), trivial_quandle(1))
        assert res.group.order == 6 and res.verified

    def test_rejects_disconnected(self):
        with pytest.raises(DomainError):
            union_quandle_aut(trivial_quandle(2), dihedral_quandle(3))


class TestUnionBiquandleAut:
    def test_case1(self):
        case, ok = verify_union_biquandle_aut(
            dihedral_quandle(3), dihedral_quandle(5), Permutation.identity(3), Permutation.identity(5)
        )
        assert (case, ok) == (1, True)

    def test_twist_outside_aut_is_refused_by_the_union(self):
        r3 = dihedral_quandle(3)
        # the 3-cycle (0 1 2) of R5's points is not an automorphism of R5
        bad = Permutation((1, 2, 0, 3, 4))
        with pytest.raises(DomainError, match="g is not an automorphism of Q2"):
            verify_union_biquandle_aut(r3, dihedral_quandle(5), Permutation.identity(3), bad)

    def test_case2(self):
        r3 = dihedral_quandle(3)
        threecycle = next(p for p in sorted(quandle_aut(r3).elements) if p.cycle_type() == (3,))
        case, ok = verify_union_biquandle_aut(r3, r3, Permutation.identity(3), threecycle)
        assert (case, ok) == (2, True)
        b = union_biquandle_constant(r3, r3, Permutation.identity(3), threecycle)
        assert biquandle_aut(b).order == 18

    def test_case3(self):
        r3 = dihedral_quandle(3)
        case, ok = verify_union_biquandle_aut(r3, r3, Permutation.identity(3), Permutation.identity(3))
        assert (case, ok) == (3, True)
        b = union_biquandle_constant(r3, r3, Permutation.identity(3), Permutation.identity(3))
        assert biquandle_aut(b).order == 72

    def test_case3_swap_element_present(self):
        r3 = dihedral_quandle(3)
        b = union_biquandle_constant(r3, r3, Permutation.identity(3), Permutation.identity(3))
        grp = biquandle_aut(b)
        alpha = find_quandle_isomorphism(r3, r3)
        swap = Permutation(tuple(3 + alpha(x) for x in range(3)) + tuple(alpha.inverse()(x) for x in range(3)))
        assert swap in grp.elements

    def test_semidirect_shape_of_case3_group(self):
        # normal block factor, trivial intersection with the swap coset,
        # generation: the four-part semidirect check
        r3 = dihedral_quandle(3)
        b = union_biquandle_constant(r3, r3, Permutation.identity(3), Permutation.identity(3))
        grp = biquandle_aut(b)
        a1 = quandle_aut(r3)
        blocks = {block_permutation(p, q) for p in a1.elements for q in a1.elements}
        assert blocks <= grp.elements
        assert len(blocks) * 2 == grp.order
        coset = grp.elements - blocks
        for p in list(coset)[:5]:
            for q in list(blocks)[:5]:
                assert p * q * p.inverse() in blocks


class TestProductTheorems:
    def test_aut_psi_trivial_is_full_product(self):
        r3 = dihedral_quandle(3)
        t2 = trivial_quandle(2)
        pairs = aut_psi_pairs(r3, t2, ident_maps(3, 2))
        assert len(pairs) == quandle_aut(r3).order * 2
        grp = aut_psi_subgroup(r3, t2, ident_maps(3, 2))
        assert grp.order == 12

    def test_aut_psi_constant_involution(self):
        r3 = dihedral_quandle(3)
        t2 = trivial_quandle(2)
        s = Permutation((0, 2, 1))
        pairs = aut_psi_pairs(r3, t2, (s, s))
        cent = centralizer(quandle_aut(r3), s)
        assert len(pairs) == cent.order * 2

    @pytest.mark.parametrize("psi", [(Permutation.identity(3),), (Permutation.identity(3),) * 3])
    def test_inadmissible_psi_raises_as_the_semidirect_biquandle_does(self, psi):
        r3, t2 = dihedral_quandle(3), trivial_quandle(2)
        with pytest.raises(DomainError) as built:
            semidirect_biquandle(r3, t2, psi)
        for f in (aut_psi_pairs, aut_psi_subgroup, verify_sequence_cardinality):
            with pytest.raises(DomainError) as err:
                f(r3, t2, psi)
            assert err.value.args == built.value.args

    def test_H_for_t2_t2(self):
        t2 = trivial_quandle(2)
        h = product_H_subgroup(t2, t2, ident_maps(2, 2))
        assert h.order == 8
        assert verify_sequence_cardinality(t2, t2, ident_maps(2, 2))

    def test_H_collapses_for_faithful_first_factor(self):
        r3, t2 = dihedral_quandle(3), trivial_quandle(2)
        psi = ident_maps(3, 2)
        assert product_H_subgroup(r3, t2, psi).same_elements(aut_psi_subgroup(r3, t2, psi))

    def test_H_collapses_for_connected_second_factor(self):
        t2, r3 = trivial_quandle(2), dihedral_quandle(3)
        psi = ident_maps(2, 3)
        assert product_H_subgroup(t2, r3, psi).same_elements(aut_psi_subgroup(t2, r3, psi))

    @pytest.mark.parametrize(
        "q1,q2",
        [
            (dihedral_quandle(3), dihedral_quandle(3)),
            (dihedral_quandle(5), trivial_quandle(2)),
            (dihedral_quandle(3), trivial_quandle(2)),
        ],
    )
    def test_product_aut_theorem(self, q1, q2):
        psi = ident_maps(q1.n, q2.n)
        assert verify_product_aut_theorem(q1, q2, psi)

    def test_expected_orders(self):
        assert biquandle_aut(semidirect_biquandle(dihedral_quandle(3), dihedral_quandle(3), ident_maps(3, 3))).order == 36
        assert biquandle_aut(semidirect_biquandle(dihedral_quandle(5), trivial_quandle(2), ident_maps(5, 2))).order == 40

    def test_theorem_requires_identity_in_image(self):
        r3 = dihedral_quandle(3)
        s = Permutation((0, 2, 1))
        with pytest.raises(DomainError):
            verify_product_aut_theorem(r3, trivial_quandle(2), (s, s))

    def test_sequence_cardinality_connected_factor(self):
        assert verify_sequence_cardinality(dihedral_quandle(3), dihedral_quandle(3), ident_maps(3, 3))

    def test_orbit_fixed_semidirect_decomposition(self):
        # Q2 with orbits of distinct sizes, so every automorphism fixes the
        # first orbit; then H = A x| B with A the delta-tuples whose first
        # slot is the identity and B the compatible pairs.  Checked as
        # cardinality + normality + trivial intersection + generation.
        from biquandles.combinators import union_quandle
        from biquandles.core import orbits as quandle_orbits

        t2 = trivial_quandle(2)
        q2 = union_quandle(dihedral_quandle(3), trivial_quandle(1))
        psi = ident_maps(2, q2.n)
        h = product_H_subgroup(t2, q2, psi)
        orbs = quandle_orbits(q2)
        assert [len(o) for o in orbs] == [3, 1]
        chi = {f: i for i, orb in enumerate(orbs) for f in orb}
        swap = Permutation((1, 0))
        a_set = set()
        for d2 in (Permutation.identity(2), swap):
            deltas = (Permutation.identity(2), d2)
            a_set.add(
                Permutation(tuple(deltas[chi[f]](x) * q2.n + f for x in range(2) for f in range(q2.n)))
            )
        b_set = {
            Permutation(tuple(a(x) * q2.n + b(f) for x in range(2) for f in range(q2.n)))
            for a, b in aut_psi_pairs(t2, q2, psi)
        }
        assert a_set <= h.elements and b_set <= h.elements
        assert len(a_set) * len(b_set) == h.order
        assert a_set & b_set == {Permutation.identity(2 * q2.n)}
        for p in h.elements:
            for q in a_set:
                assert p * q * p.inverse() in a_set
        assert {p * q for p in a_set for q in b_set} == h.elements
        assert verify_sequence_cardinality(t2, q2, psi)


class TestHolomorph:
    @pytest.mark.parametrize("n", [3, 5])
    def test_holomorph_aut(self, n):
        assert verify_holomorph_aut(dihedral_quandle(n))

    def test_ratio(self):
        for n in (3, 5):
            q = dihedral_quandle(n)
            hol = holomorph_biquandle(q)
            assert biquandle_aut(hol).order * n == hol.n

    def test_rejects_unfaithful(self):
        with pytest.raises(DomainError):
            verify_holomorph_aut(trivial_quandle(2))


class TestStructureNormalizer:
    @pytest.mark.parametrize(
        "b",
        [
            biquandle_of_quandle(dihedral_quandle(3)),
            wada_biquandle(cyclic_group(3)),
            alexander_biquandle(5, 3, 2),
        ],
    )
    def test_aut_b_normalizes(self, b):
        assert verify_structure_normalizer(b)

    def test_printed_variant_is_weaker_claim(self):
        # the embedded case has a constant identity family, so even the
        # printed version holds there
        assert verify_structure_normalizer_printed(biquandle_of_quandle(dihedral_quandle(3)))
