import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles.combinators import holomorph_biquandle, semidirect_biquandle, union_biquandle_constant
from biquandles.core import FiniteBiquandle, Permutation, associated_quandle, biquandle_of_quandle
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
        # one color list for the whole search: a search that copied the
        # coloring at every level would hold 3000^2 / 2 entries
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
    return len(links._plan(links._relations(diagram))[0])


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
        orders = {name: links._plan(links._relations(d))[0] for name, d in builtin_diagrams().items()}
        assert orders["hopf"] == [0, 3] and orders["trefoil"] == [0, 3]
        assert orders["virtual_hopf"] == [0, 1]
        for k in range(2, 7):
            assert links._plan(links._relations(parse_diagram(torus(k))))[0] == [0, k]

    @pytest.mark.parametrize(
        "b",
        [alexander_biquandle(5, 2, 3), wada_biquandle(symmetric_group(3)), holomorph_biquandle(dihedral_quandle(3))],
    )
    def test_kinks_branch_once(self, b):
        # The negative kink's crossing has one variable at both ends of its
        # forcing pair (u_in, o_out): branching on it colors the whole
        # diagram, so the search has n leaves, not n^2.
        assert links._plan(links._relations(kinked_unknot("-")))[0] == [1]
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



# biquandles for the associated-quandle oracle, up to Hol(R_7), n = 294
GUITAR_BIQUANDLES = ORACLE_BIQUANDLES + [
    alexander_biquandle(7, 3, 2),
    alexander_biquandle(31, 3, 2),
    holomorph_biquandle(dihedral_quandle(3)),
    holomorph_biquandle(dihedral_quandle(5)),
    holomorph_biquandle(dihedral_quandle(7)),
]


def braid_closure(k, word, order):
    """The closure of a braid on k strands as a diagram with no virtual
    crossing: word lists generators i (sigma_i, the strand at position
    i - 1 crossing over to position i) and -i (its inverse, the strand at
    position i - 1 crossing under), and each strand's last arc is spliced
    to its first.  order permutes the lines.  A braid closure is a planar
    diagram; a random wiring with no V line need not be, since
    virtual_hopf is one crossing and two splices."""
    pos = [f"s{j}" for j in range(k)]
    lines = []
    for c, g in enumerate(word):
        i = abs(g) - 1
        left, right, to_left, to_right = pos[i], pos[i + 1], f"c{c}l", f"c{c}r"
        if g > 0:
            lines.append(f"X + {right} {left} {to_left} {to_right}")
        else:
            lines.append(f"X - {left} {right} {to_right} {to_left}")
        pos[i], pos[i + 1] = to_left, to_right
    lines += [f"= {pos[j]} s{j}" for j in range(k)]
    return parse_diagram("\n".join(lines[j] for j in order))


@st.composite
def closed_braids(draw, pool):
    """A biquandle of pool and the closure of a braid of at most 6
    crossings on as many strands as keep the n^strands branch leaves at
    most 10^5 (two for Hol(R_5) and Hol(R_7), at most 4)."""
    b = draw(st.sampled_from(pool))
    strands = 1
    while strands < 4 and b.n ** (strands + 1) <= 10**5:
        strands += 1
    k = draw(st.integers(1, strands))
    gens = st.integers(1, k - 1).flatmap(lambda i: st.sampled_from([i, -i])) if k > 1 else st.nothing()
    word = draw(st.lists(gens, max_size=6 if k > 1 else 0))
    order = draw(st.permutations(range(len(word) + k)))
    return braid_closure(k, word, order), b


class TestAssociatedQuandleOracle:
    """On a classical diagram, colorings by a biquandle B are as many as
    colorings by its associated quandle Q, x * y = O_y^-1(x u y)
    (core.associated_quandle): the guitar map of Soloviev (Math. Res.
    Lett. 2000) and Lebed-Vendramin (Adv. Math. 2017) carries one onto
    the other on closed braids, and every classical link is one
    (Alexander).  The convention check: under this module's crossing
    rules (under_out = under_in u over_out, over_out = over_in o^-1
    under_in at a positive crossing) the theorem's quandle is this Q, or
    one with the same counts; the builtin classical diagrams gave equal
    counts on Hol(R_3), Hol(R_5), Alexander(7, 3, 2) and
    Alexander(31, 3, 2), 24 of 24.  It need not hold on a virtual diagram,
    and virtual_hopf is pinned where the counts differ, so the oracle can
    be seen to fail.  This reaches n = 294, past the brute-force cap."""

    @settings(max_examples=80, deadline=None)
    @given(closed_braids(GUITAR_BIQUANDLES))
    def test_closed_braids(self, case):
        d, b = case
        assert coloring_count_biquandle(d, b) == coloring_count_quandle(d, associated_quandle(b))

    @pytest.mark.parametrize(
        "b, by_b, by_q",
        [
            (holomorph_biquandle(dihedral_quandle(3)), 30, 54),
            (holomorph_biquandle(dihedral_quandle(5)), 220, 500),
            (alexander_biquandle(7, 3, 2), 1, 7),
            (alexander_biquandle(31, 3, 2), 1, 31),
        ],
    )
    def test_virtual_hopf_counts_differ(self, b, by_b, by_q):
        d = virtual_hopf()
        assert coloring_count_biquandle(d, b) == by_b
        assert coloring_count_quandle(d, associated_quandle(b)) == by_q


def virtual_braid_closure(m, word):
    """The closure of a virtual braid on m strands as a diagram.  word lists
    (kind, i), i in 0..m-2: kind "+" is sigma_i, the strand at position i
    passing under to i + 1, "-" is its inverse and "v" the virtual
    crossing v_i.  With s the arcs entering a crossing and t the new ones,
    sigma_i is X + s_i s_(i+1) t_(i+1) t_i, its inverse
    X - s_(i+1) s_i t_i t_(i+1), v_i is V s_i s_(i+1) t_(i+1) t_i, and
    strand j closes with = t_j s_j."""
    pos = [f"s{j}" for j in range(m)]
    lines = []
    for c, (kind, i) in enumerate(word):
        s, t = (pos[i], pos[i + 1]), (f"c{c}a", f"c{c}b")
        if kind == "+":
            lines.append(f"X + {s[0]} {s[1]} {t[1]} {t[0]}")
        elif kind == "-":
            lines.append(f"X - {s[1]} {s[0]} {t[0]} {t[1]}")
        else:
            lines.append(f"V {s[0]} {s[1]} {t[1]} {t[0]}")
        pos[i], pos[i + 1] = t
    lines += [f"= {pos[j]} s{j}" for j in range(m)]
    return parse_diagram("\n".join(lines))


def braid_fixed_points(m, word, b):
    """The number of states of X^m that the word's braid action fixes, by
    one gather per generator over all n^m states at once: sigma_i acts on the
    colours (x, y) at positions (i, i + 1) by F(x, y) = (w, x u w) with
    w = y o^-1 x, its inverse by F^-1(x, y) = (z, x o z) with
    z = y u^-1 x, and v_i by the swap."""
    start = np.indices((b.n,) * m).reshape(m, -1)  # start[j]: colour at j
    cur = list(start)
    for kind, i in word:
        x, y = cur[i], cur[i + 1]
        if kind == "+":
            w = b.over_inv[y, x]
            cur[i], cur[i + 1] = w, b.under[x, w]
        elif kind == "-":
            z = b.under_inv[y, x]
            cur[i], cur[i + 1] = z, b.over[x, z]
        else:
            cur[i], cur[i + 1] = y, x
    return int(np.logical_and.reduce([c == s for c, s in zip(cur, start)]).sum())


@st.composite
def virtual_braids(draw, pool):
    """A biquandle of pool and a virtual braid word of at most 6
    generators on as many strands as keep n^strands at most 10^6 (two for
    Hol(R_7), three for Hol(R_5), at most 4)."""
    b = draw(st.sampled_from(pool))
    strands = 1
    while strands < 4 and b.n ** (strands + 1) <= 10**6:
        strands += 1
    m = draw(st.integers(1, strands))
    gens = st.tuples(st.sampled_from("+-v"), st.integers(0, m - 2)) if m > 1 else st.nothing()
    return m, draw(st.lists(gens, max_size=6 if m > 1 else 0)), b


class TestClosedBraidFixedPoints:
    """The colorings of a closed virtual braid are the fixed points of the
    braid's action on X^m (the birack braid action of Fenn, Jordan-Santana
    and Kauffman, Biquandles and virtual links, 2004): an oracle with no
    arc cap, on virtual diagrams too, up to Hol(R_7), n = 294."""

    @settings(max_examples=100)
    @given(virtual_braids(GUITAR_BIQUANDLES))
    def test_counts_are_fixed_points(self, case):
        m, word, b = case
        assert coloring_count_biquandle(virtual_braid_closure(m, word), b) == braid_fixed_points(m, word, b)

    def test_torus_links_by_braids(self):
        # T(2, k) is the closure of sigma_1^k
        b = holomorph_biquandle(dihedral_quandle(3))
        counts = [braid_fixed_points(2, [("+", 0)] * k, b) for k in (2, 3, 4)]
        assert counts == [coloring_count_biquandle(parse_diagram(torus(k)), b) for k in (2, 3, 4)] == [54, 108, 90]
        # a virtual crossing between the two classical ones: 12, not 54
        word = [("+", 0), ("v", 0), ("+", 0)]
        assert braid_fixed_points(2, word, b) == coloring_count_biquandle(virtual_braid_closure(2, word), b) == 12


class TestPlan:
    """Which variables are known after i branches depends only on the
    diagram, so every node of depth i replays the same steps and the search
    keeps no trail."""

    @settings(max_examples=200)
    @given(wired_diagrams(16))
    def test_steps_color_each_variable_once_before_it_is_read(self, diagram):
        watch = links._relations(diagram)
        order, steps = links._plan(watch)
        assert len(steps) == len(order)
        # every distinct relation fires in exactly one step
        fired = [tuple(step[1:5]) for fires in steps for step in fires]
        assert sorted(fired) == sorted({rel for rels in watch for rel in rels})
        colored = set()
        for v, fires in zip(order, steps):
            assert v not in colored
            colored.add(v)
            for mode, *rel, new in fires:
                pairs = [(rel[0], rel[1]), (rel[2], rel[3]), (rel[0], rel[3])]
                # the step reads the first pair an earlier branch or step colored
                assert [x in colored and y in colored for x, y in pairs].index(True) == mode
                assert all(rel[p] == x for p, x in new)
                assert [x for _, x in new] == list(dict.fromkeys(x for x in rel if x not in colored))
                colored.update(x for _, x in new)
        assert colored == set(range(len(watch)))


def seeded_diagram(seed, arcs):
    """A wired diagram as `wired_diagrams` draws one, from a seeded
    generator, so that its count can be pinned."""
    rng = random.Random(seed)
    classical = rng.randint(0, arcs // 2)
    virtual = rng.randint(0, arcs // 2 - classical)
    splices = rng.randint(0, arcs - 2 * classical - 2 * virtual)
    m = 2 * classical + 2 * virtual + splices
    ins = [f"a{i}" for i in rng.sample(range(m), m)]
    outs = [f"a{i}" for i in rng.sample(range(m), m)]
    lines = []
    for j in range(0, 2 * classical, 2):
        lines.append(f"X {rng.choice('+-')} {ins[j]} {ins[j + 1]} {outs[j]} {outs[j + 1]}")
    for j in range(2 * classical, 2 * classical + 2 * virtual, 2):
        lines.append(f"V {ins[j]} {ins[j + 1]} {outs[j]} {outs[j + 1]}")
    for j in range(2 * classical + 2 * virtual, m):
        lines.append(f"= {ins[j]} {outs[j]}")
    rng.shuffle(lines)
    return parse_diagram("\n".join(lines))


def test_counts_past_brute_force_are_pinned(monkeypatch):
    """Counts on diagrams and (bi)quandles too large for the brute-force
    oracle, hashed; a refused count (past a cap of 20,000 leaves) is None."""
    monkeypatch.setattr(links, "MAX_COLOR_NODES", 20_000)

    def count_or_refusal(d, b):
        try:
            return coloring_count_biquandle(d, b)
        except DomainError:
            return None

    counts = []
    for b in [
        alexander_biquandle(31, 3, 2),
        holomorph_biquandle(dihedral_quandle(3)),
        holomorph_biquandle(dihedral_quandle(5)),
        wada_biquandle(symmetric_group(3)),
    ]:
        counts += [coloring_count_biquandle(d, b) for d in builtin_diagrams().values()]
    counts += [coloring_count_quandle(parse_diagram(torus(k)), dihedral_quandle(n)) for k in range(2, 10) for n in range(3, 32)]
    seeded = [seeded_diagram(seed, 16) for seed in range(60)]
    for b in [alexander_biquandle(7, 3, 2), wada_biquandle(symmetric_group(3)), holomorph_biquandle(dihedral_quandle(3))]:
        counts += [count_or_refusal(d, b) for d in seeded]
    assert counts[:7] == [31, 961, 31, 31, 31, 31, 1]  # Alexander(31, 3, 2)
    assert sum(c is None for c in counts) == 70
    digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
    assert digest == "63b176609104023c7dcba50c48c05c4afda81238b8fef44f603eeccab809a201"


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
