import hashlib
import itertools

import numpy as np
import pytest

from biquandles.automorphisms import biquandle_aut, quandle_aut
from biquandles.combinators import holomorph_biquandle
from biquandles.core import Permutation, associated_quandle, is_faithful
from biquandles.coverings import (
    image_quandle_SQ,
    is_quandle_covering,
    lift_structure_search,
    verify_covering_biquandle_hom,
    verify_lift_normalizer,
)
from biquandles.enumeration import enumerate_quandles, enumerate_trivial_structures
from biquandles.errors import DomainError
from biquandles.group_constructions import conj_quandle, dihedral_quandle, trivial_quandle
from biquandles.groups import symmetric_group
from biquandles.structures import (
    BiquandleStructure,
    biquandle_from_structure,
    constant_structure,
    inverse_inner_structure,
)
from helpers import projection_quandle

PROJ = np.array([0, 0, 1, 1, 2, 2])


class TestColumnClassPins:
    def test_pinned(self):
        # pinned to the per-column byte-key loops that numbered the columns
        # before _kernels._columns did: the faithfulness verdict, the image
        # quandle and p in first-occurrence order, and two covering verdicts
        qs = [q for n in range(1, 6) for q in enumerate_quandles(n)]
        qs += [associated_quandle(holomorph_biquandle(dihedral_quandle(p))) for p in (3, 5)]
        t1 = trivial_quandle(1)
        out = []
        for q in qs:
            img, p = image_quandle_SQ(q)
            to_point = is_quandle_covering(np.zeros(q.n, dtype=np.int64), q, t1)
            out.append((is_faithful(q), img.table.tolist(), p.tolist(), p.dtype.str, is_quandle_covering(p, q, img), to_point))
        assert len(out) == 1 + 1 + 5 + 36 + 404 + 2
        assert hashlib.sha256(repr(out).encode()).hexdigest() == "28c4487374aa9cd7f78c2278295cd6f126c03322b4543817caf8b7cdc2d95a53"


class TestCoveringPredicate:
    def test_projection_is_covering(self):
        assert is_quandle_covering(PROJ, projection_quandle(), dihedral_quandle(3))

    def test_mod_reduction_is_not(self):
        assert not is_quandle_covering(np.arange(9) % 3, dihedral_quandle(9), dihedral_quandle(3))

    def test_identity_is_covering(self):
        r3 = dihedral_quandle(3)
        assert is_quandle_covering(np.arange(3), r3, r3)

    def test_non_surjective_rejected(self):
        assert not is_quandle_covering(np.zeros(3, dtype=int), trivial_quandle(3), trivial_quandle(2))

    def test_bad_map_shape(self):
        with pytest.raises(DomainError):
            is_quandle_covering([0, 1], dihedral_quandle(3), dihedral_quandle(3))


class TestImageQuandle:
    def test_faithful_gives_itself(self):
        q = dihedral_quandle(5)
        sq, p = image_quandle_SQ(q)
        assert sq == q and list(p) == list(range(5))

    def test_trivial_collapses_to_point(self):
        sq, p = image_quandle_SQ(trivial_quandle(4))
        assert sq.n == 1 and set(p.tolist()) == {0}

    def test_projection_image_is_base(self):
        qt = projection_quandle()
        sq, p = image_quandle_SQ(qt)
        assert sq == dihedral_quandle(3)
        assert is_quandle_covering(p, qt, sq)

    def test_natural_map_is_always_covering(self):
        for q in (dihedral_quandle(4), conj_quandle(symmetric_group(3)), trivial_quandle(3)):
            sq, p = image_quandle_SQ(q)
            assert is_quandle_covering(p, q, sq)

    def test_matches_the_loop_over_first_occurrences(self):
        for q in enumerate_quandles(4):
            sq, p = image_quandle_SQ(q)
            reps = [int(np.flatnonzero(p == c)[0]) for c in range(sq.n)]
            assert reps == sorted(reps)  # classes numbered by first occurrence
            cols = q.table.T.tolist()
            assert all(cols[x] == cols[reps[p[x]]] for x in range(q.n))
            assert len({tuple(cols[r]) for r in reps}) == len(reps)
            loop = [[int(p[q.op(x, y)]) for y in reps] for x in reps]
            assert sq.table.tolist() == loop


class TestLifting:
    def test_constant_structures_lift_along_projection(self):
        qt = projection_quandle()
        r3 = dihedral_quandle(3)
        for f in sorted(quandle_aut(r3).elements):
            st = constant_structure(r3, f)
            lifted = lift_structure_search(PROJ, qt, r3, st)
            assert lifted is not None
            assert verify_covering_biquandle_hom(PROJ, lifted, st)

    def test_first_lift_is_product_form(self):
        qt = projection_quandle()
        r3 = dihedral_quandle(3)
        f = sorted(quandle_aut(r3).elements)[1]
        lifted = lift_structure_search(PROJ, qt, r3, constant_structure(r3, f))
        expected = Permutation(tuple(2 * f(x) + a for x in range(3) for a in range(2)))
        assert all(b == expected for b in lifted.betas)

    def test_identity_covering_returns_structure_itself(self):
        r3 = dihedral_quandle(3)
        st = inverse_inner_structure(r3)
        lifted = lift_structure_search(np.arange(3), r3, r3, st)
        assert lifted.betas == st.betas

    def test_fiber_constancy(self):
        qt = projection_quandle()
        r3 = dihedral_quandle(3)
        st = constant_structure(r3, sorted(quandle_aut(r3).elements)[2])
        lifted = lift_structure_search(PROJ, qt, r3, st)
        for x in range(6):
            for y in range(6):
                if PROJ[x] == PROJ[y]:
                    assert lifted.betas[x] == lifted.betas[y]

    def test_nonconstant_structure_through_projection(self):
        qt = projection_quandle()
        r3 = dihedral_quandle(3)
        st = inverse_inner_structure(r3)
        lifted = lift_structure_search(PROJ, qt, r3, st)
        if lifted is not None:
            assert verify_covering_biquandle_hom(PROJ, lifted, st)
            for x in range(6):
                for y in range(6):
                    if PROJ[x] == PROJ[y]:
                        assert lifted.betas[x] == lifted.betas[y]

    def test_rejects_non_covering(self):
        with pytest.raises(DomainError):
            lift_structure_search(
                np.arange(9) % 3,
                dihedral_quandle(9),
                dihedral_quandle(3),
                constant_structure(dihedral_quandle(3), Permutation.identity(3)),
            )


class TestLiftNormalizer:
    def test_identity_covering_reduces_to_plain_normalizer(self):
        r3 = dihedral_quandle(3)
        st = inverse_inner_structure(r3)
        lifted = lift_structure_search(np.arange(3), r3, r3, st)
        assert verify_lift_normalizer(np.arange(3), lifted, st) is True

    def test_projection_with_constant_structure(self):
        qt = projection_quandle()
        r3 = dihedral_quandle(3)
        st = constant_structure(r3, Permutation.identity(3))
        lifted = lift_structure_search(PROJ, qt, r3, st)
        assert verify_lift_normalizer(PROJ, lifted, st) is True


# the materialise-and-filter search that the engine's fibre colours replaced:
# list aut = sorted Aut of the covering, keep the g with p o g = phi o p


def lifts_oracle(p, aut, phi):
    phi = phi.array()
    return [g for g in aut if np.array_equal(p[g.array()], phi[p])]


def lift_oracle(p, aut, qt, a):
    cand = [lifts_oracle(p, aut, b) for b in a.betas]
    for chosen in itertools.product(*cand):
        try:
            return BiquandleStructure(qt, tuple(chosen[y] for y in p.tolist()))
        except DomainError:
            pass
    return None


def normalizer_oracle(p, aut, lifted, base):
    fam = set(lifted.betas)
    result = True
    for phi in sorted(biquandle_aut(biquandle_from_structure(base)).elements):
        lifts = lifts_oracle(p, aut, phi)
        if not lifts:
            return None
        if not any({g * f * g.inverse() for f in fam} == fam for g in lifts):
            result = False
    return result


def all_structures(q):
    """Every biquandle structure on q, from all |Aut(q)|^n families."""
    out = []
    for betas in itertools.product(sorted(quandle_aut(q).elements), repeat=q.n):
        try:
            out.append(BiquandleStructure(q, betas))
        except DomainError:
            pass
    return out


def covering_cases():
    """(p, covering, base, structures on the base) for the oracle comparison."""
    r3 = dihedral_quandle(3)
    yield PROJ, projection_quandle(), r3, all_structures(r3)
    for m in range(1, 4):
        sts = enumerate_trivial_structures(m)
        for n in range(m, 7):
            # balanced fibres, then all surplus in the last fibre
            for p in (np.arange(n) % m, np.minimum(np.arange(n), m - 1)):
                yield p, trivial_quandle(n), trivial_quandle(m), sts
    for q in enumerate_quandles(4):
        sq, p = image_quandle_SQ(q)
        sts = [constant_structure(sq, f) for f in sorted(quandle_aut(sq).elements)]
        yield p, q, sq, sts + [inverse_inner_structure(sq)]


class TestLiftOracle:
    def test_lifts_and_normalizer_verdicts_match_the_filter_search(self):
        found = 0
        for p, qt, q, sts in covering_cases():
            aut = sorted(quandle_aut(qt).elements)
            for st in sts:
                lifted = lift_structure_search(p, qt, q, st)
                assert lifted == lift_oracle(p, aut, qt, st), (p.tolist(), st.betas)
                if lifted is not None:
                    found += 1
                    verdict = normalizer_oracle(p, aut, lifted, st)
                    assert verify_lift_normalizer(p, lifted, st) == verdict
        assert found > 100
