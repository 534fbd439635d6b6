import numpy as np
import pytest

from biquandles import _kernels, combinators, structures
from biquandles.combinators import holomorph_biquandle
from biquandles.core import FiniteBiquandle, FiniteQuandle, Permutation, associated_quandle, biquandle_of_quandle, check_quandle
from biquandles.errors import DomainError, MalformedInput
from biquandles.groups import cyclic_group, symmetric_group
from biquandles.group_constructions import (
    alexander_biquandle,
    conj_quandle,
    dihedral_quandle,
    trivial_quandle,
    wada_biquandle,
)
from biquandles.structures import (
    BiquandleStructure,
    _image_rows,
    biquandle_from_structure,
    constant_structure,
    inverse_inner_structure,
    structure_of_biquandle,
    validate_structure,
)
from helpers import constructed_biquandles_over_groups


def corpus_biquandles():
    return [
        biquandle_of_quandle(trivial_quandle(1)),
        biquandle_of_quandle(dihedral_quandle(3)),
        biquandle_of_quandle(conj_quandle(symmetric_group(3))),
        wada_biquandle(cyclic_group(3)),
        wada_biquandle(cyclic_group(5)),
        wada_biquandle(symmetric_group(3)),
        alexander_biquandle(5, 3, 2),
        alexander_biquandle(7, 2, 5),
        alexander_biquandle(10, 3, 7),
        biquandle_from_structure(inverse_inner_structure(dihedral_quandle(5))),
        union_biquandle_constant_r5_pair(),
    ]


def union_biquandle_constant_r5_pair():
    from biquandles.combinators import union_biquandle_constant

    r5 = dihedral_quandle(5)
    return union_biquandle_constant(r5, r5, Permutation.identity(5), Permutation.identity(5))


class TestValidate:
    def test_constant_family_valid(self):
        r3 = dihedral_quandle(3)
        for f in (Permutation.identity(3), Permutation((1, 0, 2)), Permutation((1, 2, 0))):
            rep = validate_structure(r3, tuple(f for _ in range(3)))
            assert rep.passed

    def test_inverse_inner_valid_on_several_bases(self):
        for q in (dihedral_quandle(3), dihedral_quandle(5), conj_quandle(symmetric_group(3))):
            s = inverse_inner_structure(q)
            assert validate_structure(q, s.betas).passed

    def test_translations_on_takasaki_z3(self):
        base = dihedral_quandle(3)
        betas = tuple(Permutation(tuple((np.arange(3) + x) % 3)) for x in range(3))
        assert validate_structure(base, betas).passed
        assert biquandle_from_structure(BiquandleStructure(base, betas)) == wada_biquandle(cyclic_group(3))

    def test_non_automorphism_rejected(self):
        r4 = dihedral_quandle(4)
        rep = validate_structure(r4, tuple(Permutation((1, 0, 2, 3)) for _ in range(4)))
        assert rep.violations[0][0] == "beta-not-automorphism"

    def test_diagonal_condition_rejected(self):
        # over T_2 the pair (id, swap) fails the diagonal bijection
        t2 = trivial_quandle(2)
        rep = validate_structure(t2, (Permutation.identity(2), Permutation((1, 0))))
        assert ("structure-2", (0, 1)) in rep.violations

    def test_length_mismatch(self):
        with pytest.raises(MalformedInput):
            validate_structure(trivial_quandle(2), (Permutation.identity(2),))


class TestConstantStructure:
    def test_requires_automorphism(self):
        with pytest.raises(DomainError):
            constant_structure(dihedral_quandle(4), Permutation((1, 0, 2, 3)))

    def test_rejects_non_permutation(self):
        with pytest.raises(MalformedInput, match="f is not a Permutation"):
            constant_structure(dihedral_quandle(3), (0, 2, 1))

    def test_embeds_trivially(self):
        q = dihedral_quandle(5)
        s = constant_structure(q, Permutation.identity(5))
        assert biquandle_from_structure(s) == biquandle_of_quandle(q)

    def test_affine_double_on_r5(self):
        q = dihedral_quandle(5)
        f = Permutation(tuple((2 * x) % 5 for x in range(5)))
        b = biquandle_from_structure(constant_structure(q, f))
        assert associated_quandle(b) == q


class TestRoundTrips:
    @pytest.mark.parametrize("b", corpus_biquandles())
    def test_structure_roundtrip(self, b):
        s = structure_of_biquandle(b)
        assert biquandle_from_structure(s) == b

    @pytest.mark.parametrize("b", corpus_biquandles())
    def test_associated_quandle_is_base(self, b):
        s = structure_of_biquandle(b)
        assert s.base == associated_quandle(b)

    def test_inverse_inner_gives_projection_under(self):
        q = dihedral_quandle(3)
        b = biquandle_from_structure(inverse_inner_structure(q))
        assert np.array_equal(b.under, trivial_quandle(3).table)

    def test_alexander_structure_is_constant_multiplier(self):
        s = structure_of_biquandle(alexander_biquandle(5, 3, 2))
        mult3 = Permutation(tuple((3 * x) % 5 for x in range(5)))
        assert all(b == mult3 for b in s.betas)

    def test_embedded_gives_constant_identity(self):
        s = structure_of_biquandle(biquandle_of_quandle(dihedral_quandle(5)))
        assert all(b.is_identity() for b in s.betas)

    def test_proven_quandle_and_structure_pass_the_checks(self):
        # associated_quandle and structure_of_biquandle skip the checks
        # that b's axioms prove; the checks stay their oracle
        corpus = constructed_biquandles_over_groups(8) + corpus_biquandles()
        corpus += [holomorph_biquandle(q) for q in (trivial_quandle(2), dihedral_quandle(3), dihedral_quandle(5))]
        for b in corpus:
            s = structure_of_biquandle(b)
            assert check_quandle(associated_quandle(b).table).passed
            assert validate_structure(s.base, s.betas).passed


class TestJson:
    def test_roundtrip(self):
        s = structure_of_biquandle(wada_biquandle(cyclic_group(3)))
        assert BiquandleStructure.from_json(s.to_json()).betas == s.betas

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nope", "bad JSON: Expecting value: line 1 column 1 (char 0)"),
            ("", "bad JSON: Expecting value: line 1 column 1 (char 0)"),
            ('{"n": 1,}', "bad JSON: Expecting property name enclosed in double quotes: line 1 column 9 (char 8)"),
        ],
        ids=["word", "empty", "trailing-comma"],
    )
    def test_every_loader_reports_bad_json_alike(self, text, message):
        for cls in (FiniteQuandle, FiniteBiquandle, BiquandleStructure):
            with pytest.raises(MalformedInput) as err:
                cls.from_json(text)
            assert err.value.args == (message,)


def structure_oracle(t, B):
    """Every (x, y, z) where beta_{beta_y(x*y)} beta_y and
    beta_{beta_x(y)} beta_x differ at z, in C order."""
    t, B = t.tolist(), B.tolist()
    n = len(B)
    return [
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if B[B[y][t[x][y]]][B[y][z]] != B[B[x][y]][B[x][z]]
    ]


def aut_oracle(t, B):
    """Per row f of B, whether f(a*b) == f(a)*f(b) for all a, b."""
    t, n = t.tolist(), len(t)
    return [all(f[t[a][b]] == t[f[a]][f[b]] for a in range(n) for b in range(n)) for f in B.tolist()]


def perturbed_structures():
    """(base table, beta rows) of the corpus structures, as they are and
    with two entries of one row swapped, or one row replaced by another."""
    rng = np.random.default_rng(9)
    out = []
    for b in corpus_biquandles() + [holomorph_biquandle(dihedral_quandle(3))]:
        s = structure_of_biquandle(b)
        t, B = s.base.table, s.beta_arrays()
        out.append((t, B))
        for _ in range(4):
            P = B.copy()
            y, i, j = rng.integers(b.n, size=3)
            P[y, [i, j]] = P[y, [j, i]]
            out.append((t, P))
            P = B.copy()
            P[rng.integers(b.n)] = B[rng.integers(b.n)]
            out.append((t, P))
    return out


def perms(B):
    return [Permutation(tuple(r)) for r in B.tolist()]


class TestStructureCheck:
    """The structure-1 quadruple compare and the automorphism mask against
    plain loops, with blocks of several rows, of one row and of part of a
    row."""

    @pytest.mark.parametrize("block", [1 << 15, 40, 3])
    def test_first_witness(self, monkeypatch, block):
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        broken = 0
        for t, B in perturbed_structures():
            want = structure_oracle(t, B)
            first = want[0][:2] if want else None
            # the kernel on every family, automorphisms or not
            ar = np.arange(len(B))
            under = B[ar, t]  # under[x, y] = B[y, t[x, y]]
            assert _kernels.first_disagreement(*_kernels._columns(B.T), under, ar, B, ar[:, None]) == first
            # the report: every non-automorphism, or else the first witness
            aut = aut_oracle(t, B)
            report = validate_structure(FiniteQuandle(t), perms(B)).violations
            if all(aut):
                assert [w for axiom, w in report if axiom == "structure-1"] == ([first] if want else [])
            else:
                assert report == tuple(("beta-not-automorphism", (y,)) for y, ok in enumerate(aut) if not ok)
            broken += bool(want)
        assert broken > 20

    @pytest.mark.parametrize("block", [1 << 15, 40, 3])
    def test_automorphism_mask(self, monkeypatch, block):
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        for t, B in perturbed_structures():
            rows, ids, distinct, ok = _image_rows(FiniteQuandle(t), perms(B))
            assert np.array_equal(rows, B) and np.array_equal(distinct[ids], B)
            assert ok.tolist() == aut_oracle(t, B)


def counted_compares(monkeypatch):
    """The number of quadruples _kernels._composites_differ compares, as a
    list of block sizes; any walk of the sweeps fails."""
    checked = []
    compare = _kernels._composites_differ

    def counted(maps, quads):
        checked.append(len(quads[0]))
        return compare(maps, quads)

    def walk(*args, **kwargs):
        raise AssertionError("a valid input reached the witness walk")

    monkeypatch.setattr(_kernels, "_composites_differ", counted)
    monkeypatch.setattr(_kernels, "walk", walk)
    monkeypatch.setattr(combinators, "walk", walk)
    return checked


class TestStructureWork:
    """A valid structure costs one compare per distinct quadruple of betas
    and no sweep: the work is bounded by the number of distinct maps, not
    by n^3."""

    def test_hol7_compares_each_distinct_quadruple_once(self, monkeypatch):
        b = holomorph_biquandle(dihedral_quandle(7))
        assert len(_kernels._columns(b.over)[1]) == 42
        checked = counted_compares(monkeypatch)
        s = structure_of_biquandle(b)
        assert checked == []  # b's axioms prove the structure
        assert validate_structure(s.base, s.betas).passed
        # 42 distinct betas; 1,764 quadruples against 86,436 pairs (x, y)
        assert sum(checked) == 1_764

    def test_hol7_builds_without_a_walk(self, monkeypatch):
        counted_compares(monkeypatch)
        holomorph_biquandle(dihedral_quandle(7))

    def test_hol11_structure(self, monkeypatch):
        # n = 1,210 and 110 distinct betas: 12,100 quadruples, where the
        # n^3 sweep this replaced took about 50 s
        b = holomorph_biquandle(dihedral_quandle(11))
        checked = counted_compares(monkeypatch)
        s = structure_of_biquandle(b)
        assert checked == []  # b's axioms prove the structure
        assert validate_structure(s.base, s.betas).passed
        assert sum(checked) == 110 ** 2
        assert biquandle_from_structure(s) == b


def counted_validations(monkeypatch):
    """The list that each validate_structure call appends its base size to."""
    calls = []
    validate = structures.validate_structure

    def counted(q, betas):
        calls.append(q.n)
        return validate(q, betas)

    monkeypatch.setattr(structures, "validate_structure", counted)
    return calls


class TestProvenConstructions:
    """The proven paths skip a re-check their caller has made; the public
    constructors keep validating."""

    def test_public_constructors_validate(self, monkeypatch):
        calls = counted_validations(monkeypatch)
        b = alexander_biquandle(7, 3, 2)
        s = structure_of_biquandle(b)
        assert calls == []  # b's axioms prove the structure
        BiquandleStructure(s.base, s.betas)
        assert calls == [7]
        with pytest.raises(DomainError):
            BiquandleStructure(s.base, (Permutation((1, 0, 2, 3, 4, 5, 6)),) + s.betas[1:])
        assert calls == [7, 7]

    def test_recovered_betas_are_the_over_columns(self):
        for b in corpus_biquandles():
            s = structure_of_biquandle(b)
            assert [beta.images for beta in s.betas] == [tuple(c) for c in b.over.T.tolist()]
            assert all(beta == Permutation(beta.images) for beta in s.betas)
            assert biquandle_from_structure(s) == b
