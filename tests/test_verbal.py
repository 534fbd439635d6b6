import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles.core import check_biquandle, check_quandle, check_ybe
from biquandles.errors import DomainError, MalformedInput
from biquandles.group_constructions import conj_quandle, core_quandle, wada_biquandle
from biquandles.groups import cyclic_group, direct_product, quaternion_group, small_groups, symmetric_group
from biquandles.verbal import (
    EXTRA_VERBAL_BIQUANDLES,
    X,
    _word_table,
    classify_verbal_biquandle,
    classify_verbal_quandle,
    enumerate_verbal_biracks,
    enumerate_verbal_quandle_words,
    evaluate_word,
    format_word,
    invert,
    is_verbal_birack,
    is_verbal_quandle_word,
    multiply,
    parse_word,
    power,
    reduce_word,
    shape_word,
    substitute,
    verbal_biquandle_tables,
    verbal_quandle_table,
    word,
)


def random_word(rng, letters="xy", max_syllables=6, max_exp=3):
    syl = []
    for _ in range(rng.randrange(max_syllables + 1)):
        syl.append((rng.choice(letters), rng.choice([e for e in range(-max_exp, max_exp + 1) if e])))
    return reduce_word(tuple(syl))


class TestWordEngine:
    def test_parse_and_format(self):
        w = parse_word("y^-2 x y^1")
        assert w == (("y", -2), ("x", 1), ("y", 1))
        assert format_word(w) == "y^-2 x y"
        assert parse_word("") == ()

    def test_parse_rejects_garbage(self):
        for bad in ("x^", "2x", "x^0", "xy^2z"):
            with pytest.raises(MalformedInput):
                parse_word(bad)

    def test_word_rejects_zero_exponent(self):
        with pytest.raises(MalformedInput):
            word((("x", 0),))

    def test_word_exponent_ceiling(self):
        # the reduced word is checked: merged syllables count together
        assert word((("x", 10**4), ("y", -(10**4)))) == (("x", 10**4), ("y", -(10**4)))
        assert word((("x", 10**5), ("x", -(10**5)))) == ()
        for syllables in ((("x", 10**4 + 1),), (("y", -(10**4)), ("y", -1))):
            with pytest.raises(MalformedInput, match="ceiling of 10000"):
                word(syllables)

    def test_reduce(self):
        assert parse_word("x y y^-1 x") == (("x", 2),)
        assert invert(parse_word("y x^-1 y")) == parse_word("y^-1 x y^-1")
        assert substitute(parse_word("x y"), {"x": parse_word("z"), "y": parse_word("z^-1")}) == ()

    def test_group_laws_randomized(self):
        rng = random.Random(20240817)
        for _ in range(200):
            w = random_word(rng)
            assert multiply(w, invert(w)) == ()
            v = random_word(rng)
            assert invert(multiply(w, v)) == multiply(invert(v), invert(w))

    def test_evaluate(self):
        s3 = symmetric_group(3)
        g = 3
        assert evaluate_word(parse_word("x"), s3, {"x": g}) == g
        w = parse_word("y^-1 x y")
        for a in range(6):
            for b in range(6):
                assert evaluate_word(w, s3, {"x": a, "y": b}) == s3.conjugate(a, b)


def power_by_products(w, k):
    """w^k as |k| successive products with multiply, the oracle for power."""
    base = w if k >= 0 else invert(w)
    out = ()
    for _ in range(abs(k)):
        out = multiply(out, base)
    return out


syllable_lists = st.lists(st.tuples(st.sampled_from("xyz"), st.integers(-3, 3).filter(bool)), max_size=5)


class TestPower:
    @settings(max_examples=400)
    @given(syllable_lists, syllable_lists, st.integers(-6, 6))
    def test_matches_repeated_products(self, c, v, k):
        # drawing c v c^-1 makes conjugates common; c empty gives any word
        w = reduce_word(tuple(c) + tuple(v) + invert(tuple(c)))
        assert power(w, k) == power_by_products(w, k)

    def test_seams_merge(self):
        w = parse_word("x^2 y x^-1")
        assert power(w, 3) == parse_word("x^2 y x y x y x^-1")
        assert power(parse_word("y^5 x^2 y^-5"), -4) == parse_word("y^5 x^-8 y^-5")

    def test_large_conjugating_exponent_is_fast(self):
        u = word((("y", 10**4), ("x", 1), ("y", -(10**4))))
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            assert is_verbal_birack(u, X)
            best = min(best, time.perf_counter() - started)
        # 0.07 ms on a 2-vCPU container; k successive products took 0.1 s
        assert best < 0.005


class TestVerbalQuandles:
    @pytest.mark.parametrize("text,expect", [
        ("y^-1 x y", True),
        ("y x^-1 y", True),
        ("y x y", False),
        ("x^-1", False),     # a verbal rack, but not idempotent
        ("x y", False),
        ("x", True),
    ])
    def test_checker(self, text, expect):
        assert is_verbal_quandle_word(parse_word(text)) is expect

    @pytest.mark.parametrize("text,expect", [
        ("y^-2 x y^2", ("conj", 2)),
        ("y x^-1 y", ("core", None)),
        ("x^-1", None),
        ("x", ("conj", 0)),
    ])
    def test_classifier(self, text, expect):
        assert classify_verbal_quandle(parse_word(text)) == expect

    def test_enumeration_bound3(self):
        got = enumerate_verbal_quandle_words(3)
        expect = sorted({shape_word(-n, 1, n) for n in range(-3, 4)} | {shape_word(1, -1, 1)})
        assert got == expect

    def test_checker_matches_classifier_on_shape_grid(self):
        rng = range(-3, 4)
        for a in rng:
            for b in rng:
                for e in (1, -1):
                    w = shape_word(a, e, b)
                    assert (classify_verbal_quandle(w) is not None) == is_verbal_quandle_word(w)

    def test_concrete_instances(self):
        s3 = symmetric_group(3)
        assert verbal_quandle_table(parse_word("y^-1 x y"), s3) == conj_quandle(s3)
        assert verbal_quandle_table(parse_word("y x^-1 y"), s3) == core_quandle(s3)


class TestVerbalBiracks:
    @pytest.mark.parametrize("u,v,expect", [
        ("y^-2 x", "y^-1 x^-1 y", True),   # twisted-core pair
        ("x", "y^2 x y^-2", True),
        ("x", "x y", False),
        ("y x^-1 y", "x", True),
        ("x^-1", "y^-1 x y^-1", True),
        ("x^-1", "y^-1 x^-1 y^-1", False),  # sign typo variant fails
        ("x^-1", "x^-1", True),
        ("x", "x^-1", False),               # birack but not a biquandle
        ("x^-1", "x", False),
    ])
    def test_checker(self, u, v, expect):
        assert is_verbal_birack(parse_word(u), parse_word(v)) is expect

    @pytest.mark.parametrize("u,v,expect", [
        ("y x^-1 y", "x", (4, None)),
        ("x^-1", "y^-1 x y^-1", (8, None)),
        ("x^-1", "y^-1 x^-1 y^-1", None),
        ("y^-1 x y^-1", "x^-1", (3, None)),
        ("y^-1 x y^-1", "x", None),          # family 3 needs v = x^-1
        ("y^-2 x", "y^-1 x^-1 y", (6, None)),
        ("x y^-2", "y x^-1 y^-1", (5, None)),
        ("x", "y x^-1 y", (7, None)),
        ("x", "y^3 x y^-3", (1, 3)),
        ("y^-2 x y^2", "x", (2, -2)),
    ])
    def test_classifier(self, u, v, expect):
        assert classify_verbal_biquandle(parse_word(u), parse_word(v)) == expect

    def test_family3_needs_inverse_under_word(self):
        assert classify_verbal_biquandle(parse_word("y^-1 x y^-1"), parse_word("x^-1")) == (3, None)
        assert not is_verbal_birack(parse_word("y^-1 x y^-1"), parse_word("x"))

    def test_enumeration_matches_families_plus_extras(self):
        for bound in (0, 1, 2, 3):
            got = set(enumerate_verbal_biracks(bound))
            fams = set()
            for g in range(-bound, bound + 1):
                fams.add((X, shape_word(g, 1, -g)))
                fams.add((shape_word(g, 1, -g), X))
            def in_grid(pair):
                # the grid bounds only the conjugating y exponents
                return all(
                    abs(e) <= bound for w in pair for let, e in w if let == "y"
                )

            for u, v in [
                (shape_word(-1, 1, -1), shape_word(0, -1, 0)),
                (shape_word(1, -1, 1), shape_word(0, 1, 0)),
                (shape_word(0, 1, -2), shape_word(1, -1, -1)),
                (shape_word(-2, 1, 0), shape_word(-1, -1, 1)),
                (shape_word(0, 1, 0), shape_word(1, -1, 1)),
                (shape_word(0, -1, 0), shape_word(-1, 1, -1)),
            ]:
                if in_grid((u, v)):
                    fams.add((u, v))
            extras = {p for p in EXTRA_VERBAL_BIQUANDLES if in_grid(p)}
            assert got == fams | extras

    def test_classifier_agrees_with_checker_modulo_extras(self):
        extras = set(EXTRA_VERBAL_BIQUANDLES)
        rng = range(-3, 4)
        words = sorted({shape_word(a, e, b) for a in rng for b in rng for e in (1, -1)})
        for u in words:
            for v in words:
                claimed = classify_verbal_biquandle(u, v) is not None
                actual = is_verbal_birack(u, v)
                if (u, v) in extras:
                    assert actual and not claimed
                else:
                    assert claimed == actual

    def test_accepted_set_closed_under_operation_swap(self):
        got = set(enumerate_verbal_biracks(3))
        assert {(v, u) for u, v in got} == got


class TestSymbolicImpliesConcrete:
    @pytest.mark.parametrize("g", small_groups(8), ids=lambda g: g.name)
    def test_all_pairs_give_biquandles(self, g):
        for u, v in enumerate_verbal_biracks(2):
            b = verbal_biquandle_tables(u, v, g)
            assert check_ybe(b)

    def test_wada_pair_reproduces_wada(self):
        z3 = cyclic_group(3)
        b = verbal_biquandle_tables(parse_word("y^-2 x"), parse_word("y^-1 x^-1 y"), z3)
        assert b == wada_biquandle(z3)

    def test_accepted_quandle_words_give_quandles(self):
        for g in small_groups(6):
            for w in enumerate_verbal_quandle_words(2):
                assert check_quandle(verbal_quandle_table(w, g).table).passed


def cellwise(w, g):
    """w(x, y) on every pair of elements, one evaluate_word call a cell."""
    return np.array([[evaluate_word(w, g, {"x": x, "y": y}) for y in range(g.n)] for x in range(g.n)])


class TestTablesByGathers:
    """The tables are built by one gather per syllable; they equal the word
    evaluated cell by cell."""

    GROUPS = [symmetric_group(3), quaternion_group(), direct_product(cyclic_group(2), cyclic_group(6))]

    @pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.name)
    def test_quandle_tables(self, g):
        for w in enumerate_verbal_quandle_words(2):
            assert np.array_equal(verbal_quandle_table(w, g).table, cellwise(w, g)), format_word(w)

    @pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.name)
    def test_biquandle_tables(self, g):
        cells = {w: cellwise(w, g) for pair in enumerate_verbal_biracks(2) for w in pair}
        for u, v in enumerate_verbal_biracks(2):
            b = verbal_biquandle_tables(u, v, g)
            assert np.array_equal(b.over, cells[u]) and np.array_equal(b.under, cells[v]), (format_word(u), format_word(v))

    @pytest.mark.parametrize("e", [1, -1, 2, -2, 7, -7, 10**4, -(10**4)])
    def test_powers_by_squaring(self, e):
        s4 = symmetric_group(4)
        for w in (word([("y", e), ("x", 1), ("y", -e)]), word([("x", e), ("y", 1)]), word([("x", e), ("y", e)])):
            assert np.array_equal(_word_table(w, s4), cellwise(w, s4)), format_word(w)

    def test_letter_without_a_value(self):
        z3 = cyclic_group(3)
        with pytest.raises(DomainError, match="^letter 'z' has no assignment$"):
            verbal_quandle_table(parse_word("y z^-1 x"), z3)
        with pytest.raises(DomainError, match="^letter 'z' has no assignment$"):
            verbal_biquandle_tables(X, parse_word("z"), z3)
