"""The image-row verifiers of automorphisms.py against the set-based
oracle in verifier_oracle.py, on a seeded corpus of small inputs: group
rows and generators, verdicts, and DomainError texts are equal.  Products
stay small, because |C|^k grows fast (T_4 x T_4 alone is about 10^8 maps).

Also pins how many times each verifier runs the bijection engine, so an
automorphism group is computed once per call."""

import random

import numpy as np
import pytest

import verifier_oracle as oracle
from biquandles import automorphisms
from biquandles.combinators import union_quandle
from biquandles.core import Permutation, PermutationGroup, biquandle_of_quandle, is_connected, unique_rows
from biquandles.enumeration import enumerate_quandles
from biquandles.errors import DomainError, MalformedInput
from biquandles.group_constructions import alexander_biquandle, dihedral_quandle, trivial_quandle, wada_biquandle
from biquandles.groups import automorphism_group, cyclic_group, direct_product
from biquandles.structures import biquandle_from_structure, constant_structure, inverse_inner_structure
from helpers import constructed_biquandles_over_groups

SEED = 28
QUANDLES = [q for n in range(1, 5) for q in enumerate_quandles(n)]
# connected quandles: every one of order <= 4, and the first three of order 5
CONNECTED = [q for q in QUANDLES if is_connected(q)] + [q for q in enumerate_quandles(5) if is_connected(q)][:3]


def record(x):
    """A group as its rows and generators; anything else as itself."""
    return (x.rows.tobytes(), x.rows.shape, x.generators) if isinstance(x, PermutationGroup) else x


def outcome(f, *args):
    """A comparable record of f(*args): a union result as its fields, each
    item of a tuple recorded, a DomainError as its text."""
    try:
        out = f(*args)
    except DomainError as err:
        return "DomainError", err.args
    if isinstance(out, automorphisms.UnionAutResult):
        out = (out.group, out.isomorphic, out.verified)
    return tuple(map(record, out)) if isinstance(out, tuple) else record(out)


def same(name, *args):
    """The library's and the oracle's outcome of the function name."""
    got = outcome(getattr(automorphisms, name), *args)
    assert got == outcome(getattr(oracle, name), *args), (name, args)
    return got


def test_centralizer_and_normalizer_of_family():
    rng = random.Random(SEED)
    for q in QUANDLES + CONNECTED[-3:]:
        g = automorphisms.quandle_aut(q)
        els = list(g)
        for f in els:
            same("centralizer", g, f)
        families = [[q.sx(x) for x in range(q.n)]] + [rng.sample(els, min(len(els), k)) for k in (1, 2, 3)]
        for fam in families:
            same("normalizer_of_family", g, fam)
    with pytest.raises(DomainError, match="not a member"):
        automorphisms.centralizer(automorphisms.quandle_aut(dihedral_quandle(4)), Permutation((1, 0, 2, 3)))


def test_union_quandle_aut():
    verdicts = set()
    for q1 in CONNECTED:
        for q2 in CONNECTED:
            verdicts.add(same("union_quandle_aut", q1, q2)[1:])
    assert verdicts == {(False, True), (True, True)}
    assert same("union_quandle_aut", trivial_quandle(2), dihedral_quandle(3))[0] == "DomainError"


def test_verify_union_biquandle_aut_meets_every_case():
    rng = random.Random(SEED)
    cases = set()
    for q1 in CONNECTED:
        for q2 in CONNECTED:
            a1, a2 = list(automorphisms.quandle_aut(q1)), list(automorphisms.quandle_aut(q2))
            twists = [(a1[0], a2[0])] + [(rng.choice(a1), rng.choice(a2)) for _ in range(4)]
            for f1, f2 in twists:
                cases.add(same("verify_union_biquandle_aut", q1, q2, f1, f2))
    assert cases == {(1, True), (2, True), (3, True)}
    r3 = dihedral_quandle(3)
    assert same("verify_union_biquandle_aut", r3, trivial_quandle(2), Permutation.identity(3), Permutation.identity(2))[0] == "DomainError"


def product_cases():
    """(Q1, Q2, psi) with psi constant at the identity, constant at up to
    two seeded automorphisms, or the inner translations when Q2 = Q1."""
    rng = random.Random(SEED)
    t1, t2, r3 = trivial_quandle(1), trivial_quandle(2), dihedral_quandle(3)
    firsts = [t1, t2, trivial_quandle(3), r3, CONNECTED[2], dihedral_quandle(5)]
    seconds = [t1, t2, r3, union_quandle(r3, t1)]
    for q1 in firsts:
        auts = list(automorphisms.quandle_aut(q1))
        for q2 in seconds:
            if q1.n == 3 and q2.n == 4 and not is_connected(q1):
                continue  # |C|^k = 6^2 * 36 pairs: kept out for time
            for f in [auts[0]] + rng.sample(auts, min(2, len(auts))):
                yield q1, q2, (f,) * q2.n
        yield q1, q1, tuple(q1.sx(x) for x in range(q1.n))
    # inadmissible families: wrong length, a map that is no automorphism,
    # two that do not commute (no homomorphism from the trivial quandle)
    yield r3, t2, (Permutation.identity(3),)
    yield dihedral_quandle(5), t2, (Permutation.identity(5), Permutation((1, 0, 2, 3, 4)))
    yield r3, t2, (Permutation((1, 0, 2)), Permutation((0, 2, 1)))


def test_product_theorems():
    verdicts = []
    for q1, q2, psi in product_cases():
        for name in ("aut_psi_pairs", "aut_psi_subgroup", "product_H_subgroup"):
            same(name, q1, q2, psi)
        verdicts.append(same("verify_product_aut_theorem", q1, q2, psi))
        verdicts.append(same("verify_sequence_cardinality", q1, q2, psi))
    assert True in verdicts and ("DomainError", ("Q1 must be connected",)) in verdicts
    assert ("DomainError", ("psi(Q2) must contain the identity",)) in verdicts
    errors = {out[1][0] for out in verdicts if isinstance(out, tuple)}
    assert len(errors) == 5, errors


def test_constant_structure_aut():
    for q in CONNECTED + [trivial_quandle(3)]:
        for f in automorphisms.quandle_aut(q):
            assert same("verify_constant_structure_aut", q, f) is True


def abelian_groups():
    return [cyclic_group(n) for n in range(1, 10)] + [direct_product(cyclic_group(2), cyclic_group(2))]


def test_gen_dihedral_and_gen_alexander():
    rng = random.Random(SEED)
    outcomes = []
    for g in abelian_groups():
        auts = automorphism_group(g)
        for phi in auts:
            outcomes.append(same("verify_gen_dihedral_containment", g, phi))
        pairs = [(phi, psi) for phi in auts for psi in auts]
        for phi, psi in rng.sample(pairs, min(len(pairs), 24)):
            outcomes.append(same("verify_gen_alexander_aut", g, phi, psi))
    errors = {out[1][0] for out in outcomes if isinstance(out, tuple)}
    assert True in outcomes
    assert errors == {
        "need an abelian group of odd order (no 2-torsion)",
        "phi and psi must commute",
        "psi^{-1} phi must be fixed-point free",
    }


def test_holomorph_aut():
    for q in [dihedral_quandle(3), dihedral_quandle(5), dihedral_quandle(7)] + CONNECTED[1:]:
        assert same("verify_holomorph_aut", q) is True
    assert same("verify_holomorph_aut", trivial_quandle(2))[0] == "DomainError"


def structure_biquandles():
    out = constructed_biquandles_over_groups(4)
    for q in CONNECTED[:4] + [trivial_quandle(2), trivial_quandle(3)]:
        out.append(biquandle_from_structure(inverse_inner_structure(q)))
        out += [biquandle_from_structure(constant_structure(q, f)) for f in automorphisms.quandle_aut(q)]
    return out + [wada_biquandle(cyclic_group(5)), alexander_biquandle(5, 3, 2)]


def test_structure_normalizer():
    printed = []
    for b in structure_biquandles():
        assert same("verify_structure_normalizer", b) is True
        printed.append(same("verify_structure_normalizer_printed", b))
    assert set(printed) == {True, False}


def counted(monkeypatch):
    """The list that records one entry per table_bijections call the
    verifiers make."""
    calls = []
    inner = automorphisms.table_bijections

    def wrapper(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(automorphisms, "table_bijections", wrapper)
    return calls


R3, R5 = dihedral_quandle(3), dihedral_quandle(5)
ID3, ID5 = Permutation.identity(3), Permutation.identity(5)
Z5 = cyclic_group(5)


@pytest.mark.parametrize(
    "name,args,count",
    [
        ("union_quandle_aut", (R3, R3), 3),
        ("verify_union_biquandle_aut", (R3, R3, ID3, ID3), 3),
        ("verify_constant_structure_aut", (R5, ID5), 2),
        ("verify_gen_dihedral_containment", (Z5, ID5), 1),
        ("aut_psi_pairs", (R5, R5, (ID5,) * 5), 2),
        ("product_H_subgroup", (R5, R5, (ID5,) * 5), 2),
        ("verify_product_aut_theorem", (R5, R5, (ID5,) * 5), 3),
        ("verify_sequence_cardinality", (R5, R5, (ID5,) * 5), 2),
        ("verify_holomorph_aut", (R5,), 2),
        ("verify_structure_normalizer", (biquandle_of_quandle(R5),), 2),
        ("verify_structure_normalizer_printed", (biquandle_of_quandle(R5),), 1),
    ],
)
def test_each_group_is_computed_once(monkeypatch, name, args, count):
    calls = counted(monkeypatch)
    getattr(automorphisms, name)(*args)
    assert len(calls) == count


def test_gen_alexander_lists_two_groups(monkeypatch):
    auts = automorphism_group(Z5)
    phi, psi = next((a, b) for a in auts for b in auts if a(1) == 3 and b(1) == 2)
    calls = counted(monkeypatch)
    assert automorphisms.verify_gen_alexander_aut(Z5, phi, psi)
    assert len(calls) == 2


def test_gen_alexander_wrong_degree_maps_raise_library_errors():
    phi = automorphism_group(Z5)[1]
    with pytest.raises(MalformedInput, match="^permutation degree mismatch: 5 and 3$"):
        automorphisms.verify_gen_alexander_aut(Z5, phi, Permutation((0, 2, 1)))
    # equal wrong degrees pass the commute and fixed-point tests, then the
    # constructor refuses them
    with pytest.raises(DomainError, match="^phi is not an automorphism$"):
        automorphisms.verify_gen_alexander_aut(Z5, Permutation((0, 2, 1)), Permutation((0, 1, 2)))


def test_unique_rows_is_np_unique():
    rng = np.random.default_rng(SEED)
    for shape in [(0, 3), (1, 0), (5, 0), (40, 1), (200, 4)]:
        rows = rng.integers(0, 3, size=shape)
        want = np.unique(rows, axis=0) if shape[1] else rows[:1]
        assert np.array_equal(unique_rows(rows), want)


def test_H_refuses_past_the_listing_cap():
    # T_4 x T_4 with psi = id: 576 compatible pairs times 24^4 centralizer
    # tuples, refused before a map is built
    t4 = trivial_quandle(4)
    with pytest.raises(DomainError, match="H is built from 191102976 maps"):
        automorphisms.product_H_subgroup(t4, t4, (Permutation.identity(4),) * 4)
