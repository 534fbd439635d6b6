import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles.combinators import holomorph_biquandle, semidirect_biquandle, union_biquandle_constant
from biquandles.core import FiniteBiquandle, Permutation, biquandle_of_quandle
from biquandles import links
from biquandles.errors import DomainError, MalformedInput
from biquandles.groups import cyclic_group, symmetric_group
from biquandles.group_constructions import (
    alexander_biquandle,
    dihedral_quandle,
    trivial_quandle,
    wada_biquandle,
)
from biquandles.links import (
    Classical,
    Virtual,
    VirtualLinkDiagram,
    builtin_diagrams,
    coloring_count_biquandle,
    coloring_count_bruteforce,
    coloring_count_quandle,
    kinked_unknot,
    parse_diagram,
    unlink,
    virtual_hopf,
)
from helpers import cycle


def small_corpus():
    t2 = trivial_quandle(2)
    return [
        biquandle_of_quandle(dihedral_quandle(3)),
        biquandle_of_quandle(dihedral_quandle(5)),
        biquandle_of_quandle(trivial_quandle(4)),
        wada_biquandle(cyclic_group(3)),
        wada_biquandle(cyclic_group(5)),
        wada_biquandle(symmetric_group(3)),
        alexander_biquandle(5, 3, 2),
        alexander_biquandle(7, 2, 3),
        alexander_biquandle(8, 3, 5),
        union_biquandle_constant(t2, t2, cycle(2), cycle(2)),
        union_biquandle_constant(t2, trivial_quandle(3), cycle(2), cycle(3)),
        holomorph_biquandle(t2),
        semidirect_biquandle(dihedral_quandle(3), t2, tuple(Permutation.identity(3) for _ in range(2))),
    ]


class TestParsing:
    def test_builtins_validate(self):
        ds = builtin_diagrams()
        expected_components = {
            "unknot": 1, "unlink2": 2, "kink_pos": 1, "kink_neg": 1,
            "hopf": 2, "trefoil": 1, "virtual_hopf": 2,
        }
        for name, d in ds.items():
            assert d.components() == expected_components[name]

    def test_unlink_components(self):
        assert unlink(3).components() == 3

    def test_comments_and_blanks(self):
        d = parse_diagram("# a circle\n\n= a a\n")
        assert d.arc_count == 1

    def test_dangling_arc(self):
        with pytest.raises(MalformedInput, match="never used"):
            parse_diagram("X + a b c d")

    def test_reused_arc(self):
        with pytest.raises(MalformedInput, match="twice"):
            parse_diagram("X + a b c d\n= c a\n= d a")

    def test_unreadable_line_number(self):
        with pytest.raises(MalformedInput, match="line 2"):
            parse_diagram("= a a\nX ? p q r s")

    def test_bad_record(self):
        with pytest.raises(MalformedInput, match="unknown record"):
            parse_diagram("Y a b")


class TestQuandleCounts:
    def test_trefoil_three_colorings(self):
        assert coloring_count_quandle(builtin_diagrams()["trefoil"], dihedral_quandle(3)) == 9

    def test_hopf(self):
        assert coloring_count_quandle(builtin_diagrams()["hopf"], dihedral_quandle(3)) == 3

    def test_unknot(self):
        assert coloring_count_quandle(builtin_diagrams()["unknot"], dihedral_quandle(5)) == 5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trivial_counts_components(self, n):
        tn = trivial_quandle(n)
        for name, d in builtin_diagrams().items():
            assert coloring_count_quandle(d, tn) == n ** d.components(), name

    def test_depth_beyond_the_recursion_limit(self):
        # each component's arc is a free DFS level, so a recursive search
        # would nest 1,100 frames deep
        assert coloring_count_quandle(unlink(1100), trivial_quandle(1)) == 1

    def test_deep_search_memory_is_linear(self):
        # one color list and one trail for the whole search: a search that
        # copied the coloring at every level would hold 3000^2 / 2 entries
        tracemalloc.start()
        try:
            assert coloring_count_quandle(unlink(3000), trivial_quandle(1)) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_monochrome_always_proper(self):
        r5 = dihedral_quandle(5)
        for d in builtin_diagrams().values():
            assert coloring_count_quandle(d, r5) >= r5.n


class TestBiquandleCounts:
    @pytest.mark.parametrize("m,k", [(2, 2), (2, 3), (3, 3)])
    def test_virtual_hopf_separation(self, m, k):
        b = union_biquandle_constant(trivial_quandle(m), trivial_quandle(k), cycle(m), cycle(k))
        assert coloring_count_biquandle(virtual_hopf(), b) == m * m + k * k
        assert coloring_count_biquandle(unlink(2), b) == (m + k) ** 2

    def test_embedded_counts_match_quandle_counts(self):
        for q in (dihedral_quandle(3), trivial_quandle(3), dihedral_quandle(5)):
            b = biquandle_of_quandle(q)
            for name, d in builtin_diagrams().items():
                assert coloring_count_biquandle(d, b) == coloring_count_quandle(d, q), name

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_kink_stability_corpus(self, sign):
        d = kinked_unknot(sign)
        for b in small_corpus():
            assert coloring_count_biquandle(d, b) == b.n

    def test_virtual_crossings_only_propagate_equality(self):
        # pure-virtual two-component diagram behaves like the unlink
        d = parse_diagram("V a b c d\nV c d a b")
        for b in small_corpus()[:4]:
            assert coloring_count_biquandle(d, b) == b.n ** 2


def torus(k):
    """The closed 2-braid sigma_1^k, the (2, k) torus link: 2k + 2 arcs."""
    lines = ["X + x1 y1 u1 v1"]
    lines += [f"X + v{j - 1} u{j - 1} u{j} v{j}" for j in range(2, k + 1)]
    lines += [f"= v{k} x1", f"= u{k} y1"]
    return "\n".join(lines)


def renamed(d, perm):
    """The diagram with arc d.arcs[i] renamed r{perm[i]}."""
    new = {a: f"r{j}" for a, j in zip(d.arcs, perm)}
    crossings = [
        Classical(c.sign, new[c.in_under], new[c.in_over], new[c.out_under], new[c.out_over])
        if isinstance(c, Classical)
        else Virtual(new[c.in1], new[c.in2], new[c.out1], new[c.out2])
        for c in d.crossings
    ]
    return VirtualLinkDiagram(crossings, [(new[a], new[b]) for a, b in d.closures])


def shuffled(d, seed):
    """The diagram with its arcs renamed by a seeded permutation."""
    return renamed(d, random.Random(seed).sample(range(d.arc_count), d.arc_count))


def branch_count(diagram):
    return len(links._branch_order(links._relations(diagram)))


class TestBranchOrder:
    """The search branches on the variables that complete a crossing's
    forcing pair, so a closed 2-braid needs n^2 leaves, not n^3."""

    @pytest.mark.parametrize("name", ["hopf", "trefoil"])
    def test_builtin_two_braids(self, name):
        assert branch_count(builtin_diagrams()[name]) == 2

    @pytest.mark.parametrize("k", range(2, 8))
    def test_torus_diagrams(self, k):
        d = parse_diagram(torus(k))
        assert branch_count(d) == 2
        for seed in range(20):
            assert branch_count(shuffled(d, seed)) == 2

    def test_orders_are_pinned(self):
        orders = {name: links._branch_order(links._relations(d)) for name, d in builtin_diagrams().items()}
        assert orders["hopf"] == [0, 3] and orders["trefoil"] == [0, 3]
        assert orders["virtual_hopf"] == [0, 1]
        for k in range(2, 7):
            assert links._branch_order(links._relations(parse_diagram(torus(k)))) == [0, k]

    @pytest.mark.parametrize(
        "b",
        [alexander_biquandle(5, 2, 3), wada_biquandle(symmetric_group(3)), holomorph_biquandle(dihedral_quandle(3))],
    )
    def test_kinks_branch_once(self, b):
        # The negative kink's crossing has one variable at both ends of its
        # forcing pair (u_in, o_out): branching on it colors the whole
        # diagram, so the search has n leaves, not n^2.
        assert links._branch_order(links._relations(kinked_unknot("-"))) == [1]
        for sign in "+-":
            d = kinked_unknot(sign)
            assert branch_count(d) == 1
            assert coloring_count_biquandle(d, b) == coloring_count_bruteforce(d, b)

    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    def test_unlink_branches_on_every_component(self, k):
        assert branch_count(unlink(k)) == k

    @pytest.mark.parametrize("k,n", [(2, 9), (3, 5), (4, 7), (6, 3)])
    def test_renamed_torus_counts(self, k, n):
        d, r = parse_diagram(torus(k)), dihedral_quandle(n)
        for seed in range(5):
            assert coloring_count_quandle(shuffled(d, seed), r) == n * math.gcd(n, k)


class TestColoringCap:
    def test_refused_before_the_search(self):
        # 10^9 leaves: the search would run for many minutes
        with pytest.raises(DomainError, match=str(links.MAX_COLOR_NODES)):
            coloring_count_quandle(unlink(9), trivial_quandle(10))

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(links, "MAX_COLOR_NODES", 100)
        assert coloring_count_quandle(unlink(2), trivial_quandle(10)) == 100
        with pytest.raises(DomainError):
            coloring_count_quandle(unlink(3), trivial_quandle(5))


class TestBruteForceAgreement:
    @pytest.mark.parametrize(
        "b",
        [
            alexander_biquandle(3, 2, 1),
            wada_biquandle(cyclic_group(3)),
            union_biquandle_constant(trivial_quandle(2), trivial_quandle(2), cycle(2), cycle(2)),
        ],
    )
    def test_all_builtins(self, b):
        for name, d in builtin_diagrams().items():
            assert coloring_count_biquandle(d, b) == coloring_count_bruteforce(d, b), name

    def test_bruteforce_cap(self):
        with pytest.raises(MalformedInput):
            coloring_count_bruteforce(parse_diagram("\n".join(f"= a{i} a{i}" for i in range(9))), alexander_biquandle(3, 2, 1))


# (bi)quandles for the random-diagram oracle, of orders 2 to 6
ORACLE_BIQUANDLES = [
    FiniteBiquandle([[1, 1], [0, 0]], [[1, 1], [0, 0]]),
    alexander_biquandle(3, 2, 1),
    wada_biquandle(cyclic_group(3)),
    union_biquandle_constant(trivial_quandle(2), trivial_quandle(2), cycle(2), cycle(2)),
    holomorph_biquandle(trivial_quandle(2)),
    alexander_biquandle(5, 3, 2),
    wada_biquandle(symmetric_group(3)),
]
ORACLE_QUANDLES = [trivial_quandle(2), dihedral_quandle(3), dihedral_quandle(4), dihedral_quandle(5)]


def max_arcs(n):
    """The most arcs the brute-force oracle may color by n colors: n^arcs
    stays at most 5,000, and the oracle's cap is 8 arcs."""
    arcs = 0
    while arcs < 8 and n ** (arcs + 1) <= 5000:
        arcs += 1
    return arcs


@st.composite
def wired_diagrams(draw, arcs):
    """A virtual diagram of at most `arcs` arcs: signed classical crossings,
    virtual crossings and splices, whose input slots take the arcs in one
    drawn order and whose output slots take them in another, so every draw
    uses each arc once as an input and once as an output."""
    classical = draw(st.integers(0, arcs // 2))
    virtual = draw(st.integers(0, arcs // 2 - classical))
    splices = draw(st.integers(0, arcs - 2 * classical - 2 * virtual))
    m = 2 * classical + 2 * virtual + splices
    ins = [f"a{i}" for i in draw(st.permutations(range(m)))]
    outs = [f"a{i}" for i in draw(st.permutations(range(m)))]
    lines = []
    for j in range(0, 2 * classical, 2):
        sign = draw(st.sampled_from("+-"))
        lines.append(f"X {sign} {ins[j]} {ins[j + 1]} {outs[j]} {outs[j + 1]}")
    for j in range(2 * classical, 2 * classical + 2 * virtual, 2):
        lines.append(f"V {ins[j]} {ins[j + 1]} {outs[j]} {outs[j + 1]}")
    for j in range(2 * classical + 2 * virtual, m):
        lines.append(f"= {ins[j]} {outs[j]}")
    return parse_diagram("\n".join(draw(st.permutations(lines))))


@st.composite
def colored_diagrams(draw, pool):
    x = draw(st.sampled_from(pool))
    return draw(wired_diagrams(max_arcs(x.n))), x


class TestRandomDiagramOracle:
    """The search equals the brute-force count on randomly wired diagrams."""

    @settings(max_examples=150)
    @given(colored_diagrams(ORACLE_BIQUANDLES))
    def test_biquandle_counts(self, case):
        d, b = case
        assert coloring_count_biquandle(d, b) == coloring_count_bruteforce(d, b)

    @settings(max_examples=150)
    @given(colored_diagrams(ORACLE_QUANDLES))
    def test_quandle_counts(self, case):
        d, q = case
        assert coloring_count_quandle(d, q) == coloring_count_bruteforce(d, biquandle_of_quandle(q))

    @settings(max_examples=100)
    @given(colored_diagrams(ORACLE_BIQUANDLES), st.data())
    def test_renaming_arcs_keeps_the_count(self, case, data):
        # renaming renumbers the color variables, and so the branching order
        d, b = case
        perm = data.draw(st.permutations(range(d.arc_count)))
        assert coloring_count_biquandle(renamed(d, perm), b) == coloring_count_biquandle(d, b) == coloring_count_bruteforce(d, b)


# lines of the diagram format, as records on a few arcs or as token soup
_ARCS = st.sampled_from("abcd")
_RECORDS = st.one_of(
    st.tuples(st.just("X"), st.sampled_from("+-?"), _ARCS, _ARCS, _ARCS, _ARCS),
    st.tuples(st.just("V"), _ARCS, _ARCS, _ARCS, _ARCS),
    st.tuples(st.just("="), _ARCS, _ARCS),
).map(" ".join)
_TOKENS = st.sampled_from(["X", "V", "=", "+", "-", "?", "#", "a", "b", "Y"])
_LINES = st.one_of(_RECORDS, st.lists(_TOKENS, max_size=7).map(" ".join))


class TestParseFuzz:
    @settings(max_examples=400)
    @given(st.one_of(st.lists(_LINES, max_size=6).map("\n".join), st.text(max_size=40)))
    def test_diagram_or_malformed_input(self, text):
        try:
            d = parse_diagram(text)
        except MalformedInput:
            return
        assert isinstance(d, VirtualLinkDiagram)
        # one color colors every diagram exactly one way
        assert coloring_count_quandle(d, trivial_quandle(1)) == 1
