"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with -s to see them).  Tolerances are exact throughout;
runtime budgets are asserted where stated.
"""

import itertools
import math
import time

import numpy as np
import pytest

from biquandles import _kernels
from biquandles.automorphisms import (
    biquandle_aut,
    centralizer,
    quandle_aut,
    verify_gen_alexander_aut,
    verify_holomorph_aut,
    verify_product_aut_theorem,
    verify_union_biquandle_aut,
)
from biquandles.combinators import holomorph_biquandle, union_biquandle_constant
from biquandles.core import (
    Permutation,
    associated_quandle,
    biquandle_of_quandle,
    check_biquandle,
    check_ybe,
)
from biquandles.coverings import (
    is_quandle_covering,
    lift_structure_search,
    verify_covering_biquandle_hom,
)
from biquandles.enumeration import enumerate_quandles, enumerate_trivial_structures
from biquandles.groups import (
    automorphism_group,
    cyclic_group,
    is_fixed_point_free,
    small_groups,
)
from biquandles.group_constructions import (
    alexander_quandle,
    conj_quandle,
    core_quandle,
    dihedral_quandle,
    gen_alexander_biquandle,
    trivial_quandle,
)
from biquandles.links import (
    builtin_diagrams,
    coloring_count_biquandle,
    coloring_count_quandle,
    kinked_unknot,
    unlink,
    virtual_hopf,
)
from biquandles.structures import (
    biquandle_from_structure,
    constant_structure,
    structure_of_biquandle,
    validate_structure,
)
from biquandles.verbal import (
    EXTRA_VERBAL_BIQUANDLES,
    X,
    enumerate_verbal_biracks,
    enumerate_verbal_quandle_words,
    shape_word,
)
from helpers import constructed_biquandles_over_groups, cycle, mult_auto, projection_quandle


def report(name, started, budget=None):
    elapsed = time.time() - started
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_verbal_classification():
    """Word classification reproduced by exhaustive free-group computation.

    The expected pair set is the eight families with family 8 in the form
    the underlying case analysis actually derives (second word y^-1 x y^-1),
    together with the three degenerate pairs that the case analysis misses
    (constant inversion and the operation swaps of families 5 and 6); all
    three verify on every group and are pinned exactly.
    """
    started = time.time()
    got = set(enumerate_verbal_biracks(3))
    families = set()
    for g in range(-3, 4):
        families.add((X, shape_word(g, 1, -g)))        # family 1
        families.add((shape_word(g, 1, -g), X))        # family 2
    families |= {
        (shape_word(-1, 1, -1), shape_word(0, -1, 0)),   # family 3
        (shape_word(1, -1, 1), shape_word(0, 1, 0)),     # family 4
        (shape_word(0, 1, -2), shape_word(1, -1, -1)),   # family 5
        (shape_word(-2, 1, 0), shape_word(-1, -1, 1)),   # family 6
        (shape_word(0, 1, 0), shape_word(1, -1, 1)),     # family 7
        (shape_word(0, -1, 0), shape_word(-1, 1, -1)),   # family 8 (as proved)
    }
    expected = families | set(EXTRA_VERBAL_BIQUANDLES)
    assert got == expected
    assert got - families == set(EXTRA_VERBAL_BIQUANDLES)
    words = enumerate_verbal_quandle_words(3)
    expected_words = sorted({shape_word(-n, 1, n) for n in range(-3, 4)} | {shape_word(1, -1, 1)})
    assert words == expected_words
    report("01 verbal-classification", started, budget=60)


def test_criterion_02_virtual_hopf_separation():
    started = time.time()
    vh = virtual_hopf()
    two_unlink = unlink(2)
    for m, k in ((2, 2), (2, 3), (3, 3)):
        b = union_biquandle_constant(trivial_quandle(m), trivial_quandle(k), cycle(m), cycle(k))
        assert coloring_count_biquandle(vh, b) == m * m + k * k
        assert coloring_count_biquandle(two_unlink, b) == (m + k) ** 2
    for n in (1, 2, 3):
        tn = trivial_quandle(n)
        for name, d in builtin_diagrams().items():
            assert coloring_count_quandle(d, tn) == n ** d.components(), name
    report("02 virtual-hopf-separation", started, budget=10)


def test_criterion_03_axioms_and_ybe_sweep():
    started = time.time()
    corpus = constructed_biquandles_over_groups(8)
    assert len(corpus) > 1000
    for b in corpus:
        assert check_biquandle(b.under, b.over).passed
        assert check_ybe(b)
        # check_ybe answers by the exchange identities; the full braid
        # sweep stays the oracle
        assert _kernels.ybe_violation(b.under, b.over, b.over_inv) is None
    print(f"  swept {len(corpus)} biquandles", end=" ")
    report("03 axioms-ybe-sweep", started, budget=120)


def test_criterion_04_functor_identities():
    started = time.time()
    for n in (1, 2, 3, 4):
        for q in enumerate_quandles(n):
            assert associated_quandle(biquandle_of_quandle(q)) == q
    constructed = [dihedral_quandle(n) for n in range(1, 13)]
    constructed += [trivial_quandle(n) for n in range(1, 13)]
    for g in small_groups(12):
        constructed += [conj_quandle(g), core_quandle(g)]
        constructed += [alexander_quandle(g, phi) for phi in automorphism_group(g)]
    for q in constructed:
        assert associated_quandle(biquandle_of_quandle(q)) == q
    for b in constructed_biquandles_over_groups(6):
        assert biquandle_from_structure(structure_of_biquandle(b)) == b
    report("04 functor-identities", started)


def test_criterion_05_constant_structure_aut():
    started = time.time()
    for q in (dihedral_quandle(3), dihedral_quandle(5), trivial_quandle(4)):
        aut = quandle_aut(q)
        for f in sorted(aut.elements):
            b = biquandle_from_structure(constant_structure(q, f))
            assert biquandle_aut(b).same_elements(centralizer(aut, f))
    report("05 constant-structure-aut", started)


def test_criterion_06_union_biquandle_aut():
    started = time.time()
    r3, r5 = dihedral_quandle(3), dihedral_quandle(5)
    threecycle = next(p for p in sorted(quandle_aut(r3).elements) if p.cycle_type() == (3,))
    cases = [
        (r3, r5, Permutation.identity(3), Permutation.identity(5), 1, 120),
        (r3, r3, Permutation.identity(3), threecycle, 2, 18),
        (r3, r3, Permutation.identity(3), Permutation.identity(3), 3, 72),
    ]
    for q1, q2, f1, f2, expect_case, expect_order in cases:
        case, ok = verify_union_biquandle_aut(q1, q2, f1, f2)
        assert case == expect_case and ok
        b = union_biquandle_constant(q1, q2, f1, f2)
        assert biquandle_aut(b).order == expect_order
    report("06 union-biquandle-aut", started)


def test_criterion_07_product_and_holomorph_aut():
    started = time.time()
    r3, r5, t2 = dihedral_quandle(3), dihedral_quandle(5), trivial_quandle(2)
    assert verify_product_aut_theorem(r3, r3, tuple(Permutation.identity(3) for _ in range(3)))
    assert verify_product_aut_theorem(r5, t2, tuple(Permutation.identity(5) for _ in range(2)))
    for n in (3, 5, 7):
        q = dihedral_quandle(n)
        assert verify_holomorph_aut(q)
        hol = holomorph_biquandle(q)
        assert biquandle_aut(hol).order * n == hol.n
    report("07 product-holomorph-aut", started, budget=120)


def test_criterion_08_gen_alexander_aut():
    started = time.time()
    for p, expect in ((5, 4), (7, 6)):
        zp = cyclic_group(p)
        phi, psi = mult_auto(zp, 3), mult_auto(zp, 2)
        assert is_fixed_point_free(zp, psi.inverse() * phi)
        assert verify_gen_alexander_aut(zp, phi, psi)
        b = gen_alexander_biquandle(zp, phi, psi)
        assert biquandle_aut(b).order == expect
    report("08 gen-alexander-aut", started)


def test_criterion_09_trivial_structure_enumeration():
    started = time.time()
    two = enumerate_trivial_structures(2)
    assert [tuple(b.images for b in s.betas) for s in two] == [
        ((0, 1), (0, 1)),
        ((1, 0), (1, 0)),
    ]
    three = enumerate_trivial_structures(3)
    # independent generate-and-filter oracle
    perms = sorted(itertools.permutations(range(3)))
    oracle = 0
    for tup in itertools.product(perms, repeat=3):
        ok = all(
            tuple(tup[tup[y][x]][tup[y][z]] for z in range(3))
            == tuple(tup[tup[x][y]][tup[x][z]] for z in range(3))
            for x in range(3)
            for y in range(3)
        )
        if ok and len({tup[y][y] for y in range(3)}) == 3:
            oracle += 1
    assert len(three) == oracle
    base3 = trivial_quandle(3)
    for s in three:
        assert validate_structure(base3, s.betas).passed
    for n, structures in ((2, two), (3, three)):
        got = {tuple(b.images for b in s.betas) for s in structures}
        for m in range(1, n):
            k = n - m
            found = 0
            for f in itertools.permutations(range(m)):
                for g in itertools.permutations(range(k)):
                    gext = tuple(range(m)) + tuple(m + i for i in g)
                    fext = tuple(f) + tuple(range(m, n))
                    tup = tuple(gext for _ in range(m)) + tuple(fext for _ in range(k))
                    assert tup in got
                    found += 1
            assert found == math.factorial(m) * math.factorial(k)
    report("09 trivial-structure-enumeration", started)


def test_criterion_10_coverings():
    started = time.time()
    qt = projection_quandle()
    r3 = dihedral_quandle(3)
    p = np.array([0, 0, 1, 1, 2, 2])
    assert is_quandle_covering(p, qt, r3)
    for f in sorted(quandle_aut(r3).elements):
        st = constant_structure(r3, f)
        lifted = lift_structure_search(p, qt, r3, st)
        assert lifted is not None
        assert verify_covering_biquandle_hom(p, lifted, st)
    assert not is_quandle_covering(np.arange(9) % 3, dihedral_quandle(9), r3)
    report("10 coverings", started)


def test_criterion_11_kink_stability():
    started = time.time()
    corpus = [b for b in constructed_biquandles_over_groups(8) if b.n <= 8]
    # extend with union and holomorph families at small size
    t2, t3 = trivial_quandle(2), trivial_quandle(3)
    corpus += [
        union_biquandle_constant(t2, t2, cycle(2), cycle(2)),
        union_biquandle_constant(t2, t3, cycle(2), cycle(3)),
        union_biquandle_constant(dihedral_quandle(3), t3, Permutation.identity(3), cycle(3)),
        holomorph_biquandle(t2),
        biquandle_of_quandle(dihedral_quandle(7)),
    ]
    seen = set()
    unique = []
    for b in corpus:
        key = (b.under.tobytes(), b.over.tobytes())
        if key not in seen:
            seen.add(key)
            unique.append(b)
    pos, neg = kinked_unknot("+"), kinked_unknot("-")
    for b in unique:
        assert coloring_count_biquandle(pos, b) == b.n
        assert coloring_count_biquandle(neg, b) == b.n
    print(f"  checked {len(unique)} distinct biquandles", end=" ")
    report("11 kink-stability", started)
