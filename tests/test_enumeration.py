import hashlib
import itertools

import numpy as np
import pytest

from biquandles import _kernels, _search, structures
from biquandles.automorphisms import biquandle_aut
from biquandles.combinators import holomorph_biquandle
from biquandles.core import FiniteBiquandle, FiniteQuandle, Permutation, check_quandle, is_connected
from biquandles import enumeration
from biquandles.enumeration import (
    _symmetric_group,
    are_isomorphic,
    count_connected,
    enumerate_quandles,
    enumerate_trivial_structures,
    lift_structure_to_free_base_check,
    relabeling_orbits,
    trivial_structure_tuples,
)
from biquandles.errors import DomainError
from biquandles.groups import automorphism_group, cyclic_group, dihedral_group, symmetric_group
from biquandles.group_constructions import (
    alexander_biquandle,
    alexander_quandle,
    conj_quandle,
    dihedral_quandle,
    trivial_quandle,
    wada_biquandle,
)
from biquandles.structures import BiquandleStructure, constant_structure, validate_structure
from biquandles.verbal import invert, reduce_word
from helpers import mult_auto


def oracle_structure_tuples(n):
    """Independent generate-and-filter path over all |S_n|^n tuples."""
    perms = sorted(itertools.permutations(range(n)))
    good = []
    for tup in itertools.product(perms, repeat=n):
        ok = True
        for x in range(n):
            for y in range(n):
                lhs = tuple(tup[tup[y][x]][tup[y][z]] for z in range(n))
                rhs = tuple(tup[tup[x][y]][tup[x][z]] for z in range(n))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok and len({tup[y][y] for y in range(n)}) == n:
            good.append(tup)
    return good


def oracle_quandle_count(n):
    """Independent brute force over all column combinations."""
    cols = {b: [p for p in itertools.permutations(range(n)) if p[b] == b] for b in range(n)}
    cnt = 0
    for combo in itertools.product(*[cols[b] for b in range(n)]):
        if check_quandle(np.array(combo, dtype=np.int64).T).passed:
            cnt += 1
    return cnt


def _canonical(i, w):
    """Normal form of (generator, conjugator word): strip leading i-syllable."""
    w = tuple(w)
    while w and w[0][0] == i:
        w = w[1:]
    return (i, w)


def _free_quandle_op(a, b):
    """[(i, u)] * [(j, v)] = [(i, u v^{-1} x_j v)]."""
    i, u = a
    j, v = b
    w = reduce_word(u + invert(v) + ((j, 1),) + v)
    return _canonical(i, w)


def _apply_letter_perm(perm, a):
    i, w = a
    return _canonical(perm[i], tuple((perm[l], e) for l, e in w))


def _truncated_elements(n, length, exp_bound):
    """Canonical pairs (i, w) with at most `length` syllables, exponents
    bounded by exp_bound, and w not starting with letter i."""
    out = []
    exps = [e for e in range(-exp_bound, exp_bound + 1) if e != 0]

    def words(prefix, prev, remaining, first_banned):
        yield tuple(prefix)
        if remaining == 0:
            return
        for let in range(n):
            if let == prev or (not prefix and let == first_banned):
                continue
            for e in exps:
                prefix.append((let, e))
                yield from words(prefix, let, remaining - 1, first_banned)
                prefix.pop()

    for i in range(n):
        for w in words([], None, length, i):
            out.append((i, w))
    return out


def oracle_free_base_lift(structure, length, exp_bound=None):
    """Both structure conditions checked on the free-quandle word model,
    truncated to words of at most `length` syllables with exponents bounded
    by exp_bound (default: length): the reference for
    lift_structure_to_free_base_check."""
    n = structure.base.n
    if exp_bound is None:
        exp_bound = length
    betas = [tuple(b.images) for b in structure.betas]
    elements = _truncated_elements(n, length, exp_bound)
    # condition 1 on representatives of each generator pair
    for i in range(n):
        x = (i, ())
        for j in range(n):
            y = (j, ())
            xy = _free_quandle_op(x, y)
            lhs_outer = betas[_apply_letter_perm(betas[j], xy)[0]]
            rhs_outer = betas[_apply_letter_perm(betas[i], y)[0]]
            for z in elements:
                lz = _apply_letter_perm(lhs_outer, _apply_letter_perm(betas[j], z))
                rz = _apply_letter_perm(rhs_outer, _apply_letter_perm(betas[i], z))
                if lz != rz:
                    return False
    # condition 2: diagonal injectivity on the truncated set
    diag = {}
    for a in elements:
        img = _apply_letter_perm(betas[a[0]], a)
        if img in diag:
            return False
        diag[img] = a
    return True


def classify(quandles):
    """Each quandle tested against the representatives so far, as perfbench
    classifies: the representatives, and for every other quandle the
    images of its witness from the first representative it matches."""
    reps, witnesses = [], []
    for q in quandles:
        for r in reps:
            w = are_isomorphic(r, q)
            if w is not None:
                witnesses.append(w.images)
                break
        else:
            reps.append(q)
    return reps, witnesses


def relabel(t, s):
    """The table T' with T'[s(a), s(b)] = s(T[a, b])."""
    inv = np.argsort(s)
    return s[np.asarray(t)[inv][:, inv]]


def alexander_table(p, a):
    """x * y = a x + (1 - a) y on Z_p."""
    x = np.arange(p)
    return (a * x[:, None] + (1 - a) * x[None, :]) % p


def digest(obj):
    """Short hash of repr(obj), to pin a long output."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class TestOutputPins:
    """Outputs pinned by hash to those of the recursive searches that the
    explicit stacks replaced: same tables and tuples, in the same order."""

    @pytest.mark.parametrize(
        "n,count,pin",
        [
            (1, 1, "7ae717c9aac47e3a"),
            (2, 1, "f33f2ba614466921"),
            (3, 5, "b63447988d4a5535"),
            (4, 36, "de54b4d9da4d043c"),
            (5, 404, "26c77a601ba63afa"),
        ],
    )
    def test_enumerate_quandles(self, n, count, pin):
        got = [q.table.tolist() for q in enumerate_quandles(n)]
        assert (len(got), digest(got)) == (count, pin)

    @pytest.mark.parametrize(
        "n,count,pin",
        [
            (0, 1, "b18a48f02566e615"),
            (1, 1, "4ac279b94d8c735e"),
            (2, 2, "25a0580d7f200203"),
            (3, 12, "434a6e723374f3ea"),
            (4, 168, "f47e9da46e70ca7f"),
            (5, 2640, "66fc4a9bc12e38ee"),
        ],
    )
    def test_trivial_structure_tuples(self, n, count, pin):
        got = trivial_structure_tuples(n)
        assert (len(got), digest(got)) == (count, pin)

    @pytest.mark.parametrize(
        "n,pin",
        [
            (0, "b5e05b07fd1c561a"),
            (1, "f880ce01acc6e158"),
            (2, "3ccd0cc293933f8f"),
            (3, "ff8bed1e72d75b3f"),
            (4, "4016e8d03def91b4"),
            (5, "ebdef1a9ef230fe6"),
        ],
    )
    def test_symmetric_group_tables(self, n, pin):
        # pinned to the tables the base-n integer ranks gave
        assert digest(_symmetric_group(n)) == pin


class TestTrivialStructures:
    def test_n1(self):
        assert len(enumerate_trivial_structures(1)) == 1

    def test_n2_exactly_two(self):
        got = [tuple(b.images for b in s.betas) for s in enumerate_trivial_structures(2)]
        assert got == [((0, 1), (0, 1)), ((1, 0), (1, 0))]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_generate_and_filter_oracle(self, n):
        mine = [tuple(b.images for b in s.betas) for s in enumerate_trivial_structures(n)]
        assert mine == sorted(oracle_structure_tuples(n))

    def test_every_output_validates(self):
        base = trivial_quandle(3)
        for s in enumerate_trivial_structures(3):
            assert validate_structure(base, s.betas).passed

    def test_union_derived_structures_appear(self):
        # each split n = m + k contributes the m!k! block-twist families
        for n in (3, 4):
            got = {tuple(b.images for b in s.betas) for s in enumerate_trivial_structures(n)}
            for m in range(1, n):
                k = n - m
                for f in itertools.permutations(range(m)):
                    for g in itertools.permutations(range(k)):
                        gext = tuple(range(m)) + tuple(m + i for i in g)
                        fext = tuple(f) + tuple(range(m, n))
                        tup = tuple(gext for _ in range(m)) + tuple(fext for _ in range(k))
                        assert tup in got

    def test_constant_tuples_appear(self):
        got = {tuple(b.images for b in s.betas) for s in enumerate_trivial_structures(3)}
        for p in itertools.permutations(range(3)):
            assert tuple(p for _ in range(3)) in got

    def test_closed_under_relabeling(self):
        structures = enumerate_trivial_structures(3)
        orbs = relabeling_orbits(structures)
        assert sum(len(o) for o in orbs) == len(structures)
        assert sorted(len(o) for o in orbs) == [1, 2, 3, 3, 3]

    def test_n4_validates_no_structure_again(self, monkeypatch):
        # trivial_structure_tuples has proved every tuple (its output is
        # pinned in TestOutputPins); each of the 168 is a valid structure
        calls = []
        validate = structures.validate_structure
        monkeypatch.setattr(structures, "validate_structure", lambda q, betas: calls.append(q.n) or validate(q, betas))
        got = enumerate_trivial_structures(4)
        assert calls == []
        assert [tuple(b.images for b in s.betas) for s in got] == trivial_structure_tuples(4)
        assert all(validate(s.base, s.betas).passed for s in got)
        assert all(s == BiquandleStructure(s.base, s.betas) for s in got)

    def test_closed_under_relabeling_n4(self):
        structures = enumerate_trivial_structures(4)
        assert len(structures) == 168
        orbs = relabeling_orbits(structures)  # raises if not closed
        assert sum(len(o) for o in orbs) == 168

    def test_relabeling_classes_n5(self):
        structures = enumerate_trivial_structures(5)
        orbs = relabeling_orbits(structures)  # raises if not closed
        assert len(orbs) == 88
        assert sorted(i for o in orbs for i in o) == list(range(2640))

    def test_cap(self):
        with pytest.raises(DomainError):
            enumerate_trivial_structures(6)


class TestEnumerationCeiling:
    """A raised cap does not raise the fixed ceilings: quandles past order
    6 and trivial structures past order 5 are refused before any search
    starts, however large the cap."""

    @pytest.mark.parametrize(
        "enumerate_, n, ceiling",
        [(enumerate_quandles, 7, 6), (enumerate_trivial_structures, 6, 5), (enumerate_trivial_structures, 7, 5)],
    )
    def test_refused_whatever_the_cap(self, monkeypatch, enumerate_, n, ceiling):
        def no_search(n):
            raise AssertionError("the search started")

        # both searches start by listing S_n
        monkeypatch.setattr(enumeration, "_symmetric_group", no_search)
        with pytest.raises(DomainError, match=f"ceiling {ceiling}"):
            enumerate_(n, cap=99)


class TestRelabelingOrbits:
    def test_orbits_pinned(self):
        # pinned to the orbits that relabeling through n! Permutation
        # products gave
        got = [relabeling_orbits(enumerate_trivial_structures(n)) for n in range(1, 6)]
        assert [len(o) for o in got] == [1, 2, 5, 23, 88]
        assert hashlib.sha256(repr(got).encode()).hexdigest() == (
            "d760bf962ef47322b1f32f210abe6a833097c5c1304235421912fe81e7017615"
        )

    def test_not_closed_under_relabeling(self):
        structures = enumerate_trivial_structures(3)
        drop = next(o for o in relabeling_orbits(structures) if len(o) > 1)[0]
        with pytest.raises(DomainError, match="^structure set is not closed under relabeling$"):
            relabeling_orbits(structures[:drop] + structures[drop + 1 :])

    def test_transpositions_of_t7_form_one_orbit(self):
        # 5,040 relabelings per family; an integer key of a family, base 7!
        # over its 7 permutation indices (5040^7 > 2^63) or base 7 over its
        # 49 images, would overflow int64
        t7 = trivial_quandle(7)
        swaps = [Permutation(tuple(b if x == a else a if x == b else x for x in range(7))) for a in range(7) for b in range(a + 1, 7)]
        structures = [constant_structure(t7, f) for f in swaps]
        assert len(structures) == 21
        assert relabeling_orbits(structures) == [list(range(21))]


class TestFreeBaseLift:
    def test_constant_structures_pass(self):
        for s in enumerate_trivial_structures(2):
            assert lift_structure_to_free_base_check(s)

    def test_all_n3_structures_pass_at_short_truncation(self):
        for s in enumerate_trivial_structures(3):
            assert lift_structure_to_free_base_check(s)

    def test_rejects_non_trivial_base(self):
        s = BiquandleStructure(dihedral_quandle(3), tuple(Permutation.identity(3) for _ in range(3)))
        with pytest.raises(DomainError):
            lift_structure_to_free_base_check(s)

    def test_matches_word_model_on_every_n3_family(self):
        # every family of three permutations, structure or not: the verdict
        # is the word model's at each truncation, and validate_structure's
        base = trivial_quandle(3)
        families = itertools.product([Permutation(p) for p in itertools.permutations(range(3))], repeat=3)
        verdicts = []
        for betas in families:
            s = BiquandleStructure._proven(base, betas)
            want = validate_structure(base, betas).passed
            for length in (0, 1, 2):
                assert oracle_free_base_lift(s, length) == lift_structure_to_free_base_check(s) == want
            verdicts.append(want)
        assert (len(verdicts), sum(verdicts)) == (216, 12)


class TestQuandleEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 5), (4, 36)])
    def test_counts_match_oracle(self, n, count):
        got = enumerate_quandles(n)
        assert len(got) == count == oracle_quandle_count(n)

    def test_all_validate(self):
        # the output skips check_quandle, so check each table here, and
        # that it holds what the validating constructor would
        for n in (4, 5):
            got = enumerate_quandles(n)
            flat = [q.table.ravel().tolist() for q in got]
            assert flat == sorted(flat) and len(set(map(tuple, flat))) == len(flat)
            for q in got:
                assert check_quandle(q.table).passed
                built = FiniteQuandle(q.table)
                assert q == built and q.n == n
                assert np.array_equal(q.tinv, built.tinv)
                for t in (q.table, q.tinv):
                    assert t.dtype == np.int64 and not t.flags.writeable

    def test_connected_counts(self):
        assert [count_connected(n) for n in (1, 2, 3)] == [1, 0, 1]

    def test_n2_is_trivial_quandle(self):
        assert enumerate_quandles(2) == [trivial_quandle(2)]

    def test_cap(self):
        with pytest.raises(DomainError):
            enumerate_quandles(6)


class TestClassification:
    """Pinned by hash to the witnesses found before invariants were kept
    per object: the same classes and the same witness for every table."""

    @pytest.mark.parametrize("n,classes,pin", [(4, 7, "9f5a222fdb3e12f4"), (5, 22, "8ca923a9dda5ff26")])
    def test_classes_and_witnesses(self, n, classes, pin):
        reps, witnesses = classify(enumerate_quandles(n))
        assert (len(reps), digest(witnesses)) == (classes, pin)

    def test_one_invariant_pass_per_quandle(self, monkeypatch):
        calls = []
        invariants = _search._invariants

        def counted(tables):
            calls.append(1)
            return invariants(tables)

        monkeypatch.setattr(_search, "_invariants", counted)
        reps, _ = classify(enumerate_quandles(5))
        assert len(reps) == 22
        assert len(calls) <= 404  # pairwise recomputation made 8,454


def _pairs():
    """(x, y, isomorphic) pairs of quandles and of biquandles."""
    s5 = np.array([3, 0, 4, 1, 2])
    r5 = dihedral_quandle(5)
    yield r5, FiniteQuandle(relabel(r5.table, s5)), True
    b = alexander_biquandle(7, 2, 3)
    s7 = np.array([6, 2, 0, 5, 1, 3, 4])
    yield b, FiniteBiquandle(relabel(b.under, s7), relabel(b.over, s7)), True
    # 2 and 6 are primitive roots mod 13: equal invariants, not isomorphic
    s13 = np.array([7, 3, 11, 0, 12, 5, 9, 1, 4, 10, 2, 8, 6])
    yield FiniteQuandle(alexander_table(13, 2)), FiniteQuandle(relabel(alexander_table(13, 6), s13)), False


def _fresh(x):
    if isinstance(x, FiniteQuandle):
        return FiniteQuandle(x.table)
    return FiniteBiquandle(x.under, x.over)


class TestInvariantMemo:
    @pytest.mark.parametrize("x,y,isomorphic", list(_pairs()))
    def test_warm_call_matches_cold(self, x, y, isomorphic):
        cold = are_isomorphic(_fresh(x), _fresh(y))
        assert (cold is not None) == isomorphic
        assert x.invariants()[1] == y.invariants()[1]
        assert are_isomorphic(x, y) == cold  # memos filled before the call
        assert are_isomorphic(x, y) == cold

    def test_tables_are_read_only(self):
        q = dihedral_quandle(3)
        b = alexander_biquandle(7, 2, 3)
        for t in (q.table, b.under, b.over):
            with pytest.raises(ValueError):
                t[0, 0] = 1

    def test_recomputed_when_the_table_is_replaced(self):
        # the table cannot be replaced, so the invariants stay the table's
        q = dihedral_quandle(4)
        before = q.invariants()
        with pytest.raises(AttributeError):
            q.table = trivial_quandle(4).table
        assert q.invariants() == before != trivial_quandle(4).invariants()

    def test_plan_rebuilt_when_the_tables_are_replaced(self, monkeypatch):
        # the tables cannot be replaced, so each plan is built once
        built = plan_builds(monkeypatch)
        q = dihedral_quandle(4)
        before = q._side().witness_plan
        assert q._side().witness_plan is before and before.base == [0, 1]
        with pytest.raises(AttributeError):
            q.table = trivial_quandle(4).table
        assert q._side().witness_plan is before
        assert are_isomorphic(q, trivial_quandle(4)) is None
        b = alexander_biquandle(7, 2, 3)
        assert b._side().witness_plan.base == [0, 1]
        for name in ("under", "over"):
            with pytest.raises(AttributeError):
                setattr(b, name, trivial_quandle(7).table)
        assert b._side().witness_plan.base == [0, 1]
        assert built == ["witness", "witness"]


def plan_builds(monkeypatch):
    """The closure plans built from now on, by mode: "witness" for a
    first-free plan, "listing" for a generating one."""
    built = []
    plan = _kernels.closure_plan

    def counted(tables, cells=None):
        built.append("witness" if cells is None else "listing")
        return plan(tables, cells)

    monkeypatch.setattr(_kernels, "closure_plan", counted)
    return built


class TestOneSidePerObject:
    """Each object compiles one _search.Side, and builds each part of it
    only when a question first needs that part."""

    def test_classification_builds_witness_plans_only(self, monkeypatch):
        built = plan_builds(monkeypatch)
        reps, _ = classify(enumerate_quandles(5))
        # one plan per representative that a later table's invariant
        # multiset matches: all but one of the 22
        assert len(reps) == 22
        assert built == ["witness"] * 21

    def test_listing_builds_one_generating_plan(self, monkeypatch):
        b = holomorph_biquandle(dihedral_quandle(5))
        built = plan_builds(monkeypatch)
        biquandle_aut(b)
        biquandle_aut(b)
        assert built == ["listing"]

    def test_structure_check_computes_no_invariants(self, monkeypatch):
        q = dihedral_quandle(5)
        built = plan_builds(monkeypatch)
        invariants = []
        monkeypatch.setattr(_search, "_invariants", lambda t: invariants.append(t))
        assert validate_structure(q, [Permutation.identity(5)] * 5).passed
        assert built == invariants == []

    def test_group_side_rebuilt_when_the_table_is_replaced(self):
        # the table cannot be replaced, so the Side is built once
        g = dihedral_group(4)
        side = g._side()
        assert g._side() is side and len(automorphism_group(g)) == 8
        with pytest.raises(AttributeError):
            g.mul = cyclic_group(8).mul
        assert g._side() is side and len(automorphism_group(g)) == 8


class TestIsomorphism:
    def test_r3_isomorphic_to_alexander(self):
        z3 = cyclic_group(3)
        wit = are_isomorphic(dihedral_quandle(3), alexander_quandle(z3, mult_auto(z3, 2)))
        assert wit is not None

    def test_witness_is_table_preserving(self):
        q1 = conj_quandle(symmetric_group(3))
        wit = are_isomorphic(q1, q1)
        img = wit.array()
        assert np.array_equal(img[q1.table], q1.table[np.ix_(img, img)])

    def test_different_sizes(self):
        assert are_isomorphic(trivial_quandle(2), trivial_quandle(3)) is None

    def test_embedded_vs_wada_not_isomorphic(self):
        from biquandles.core import biquandle_of_quandle

        b1 = biquandle_of_quandle(dihedral_quandle(3))
        b2 = wada_biquandle(cyclic_group(3))
        assert are_isomorphic(b1, b2) is None

    def test_reflexive_and_symmetric_on_enumerated(self):
        qs = enumerate_quandles(3)
        for q in qs:
            assert are_isomorphic(q, q) is not None
        for a in qs:
            for b in qs:
                assert (are_isomorphic(a, b) is None) == (are_isomorphic(b, a) is None)

    def test_type_mismatch(self):
        from biquandles.core import biquandle_of_quandle

        with pytest.raises(DomainError):
            are_isomorphic(trivial_quandle(2), biquandle_of_quandle(trivial_quandle(2)))
