"""The bijection engine against brute force over all n! permutations."""

import functools
import hashlib
import itertools
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles import _kernels, _search, automorphisms, enumeration, links
from biquandles._search import Side, first_bijection, table_bijections
from biquandles.automorphisms import biquandle_aut, quandle_aut, verify_holomorph_aut
from biquandles.combinators import holomorph_biquandle
from biquandles.core import FiniteBiquandle, FiniteQuandle, Permutation, orbits
from biquandles.enumeration import are_isomorphic, enumerate_quandles
from biquandles.errors import DomainError
from biquandles.group_constructions import dihedral_quandle, trivial_quandle
from biquandles.groups import automorphism_group, cyclic_group, dihedral_group, direct_product, small_groups
from test_links import wired_diagrams


def maps_onto(f, tables_a, tables_b):
    """Whether f(T[x, y]) == T'[f(x), f(y)] for every table pair and x, y."""
    n = len(f)
    return all(
        f[ta[x][y]] == tb[f[x]][f[y]]
        for ta, tb in zip(tables_a, tables_b)
        for x in range(n)
        for y in range(n)
    )


def bijections_oracle(tables_a, tables_b, colours=None):
    """Every permutation mapping each A table onto its B table, and colour
    cA[x] onto colour cB[f(x)] when colours = (cA, cB) is given, sorted."""
    tables_a = [t.tolist() for t in tables_a]
    tables_b = [t.tolist() for t in tables_b]
    n = len(tables_a[0])
    cA, cB = colours if colours is not None else ([0] * n, [0] * n)
    return [
        list(f)
        for f in itertools.permutations(range(n))
        if maps_onto(f, tables_a, tables_b) and all(cB[f[x]] == cA[x] for x in range(n))
    ]


@functools.lru_cache(maxsize=None)
def symmetric_tables(n):
    """Tables of order n with large automorphism groups: the trivial and
    dihedral quandles, every Alexander quandle x * y = ax + (1 - a)y on Z_n,
    and the multiplication table of every group of order n."""
    x = np.arange(n)
    tables = [np.broadcast_to(x[:, None], (n, n)), (2 * x[None, :] - x[:, None]) % n]
    tables += [(a * x[:, None] + (1 - a) * x[None, :]) % n for a in range(2, n) if math.gcd(a, n) == 1]
    tables += [g.mul for g in small_groups(n) if g.n == n]
    return tables


def relabel(t, s):
    """The table transported along the permutation s (old index -> new)."""
    inv = np.argsort(s)
    return s[t[inv][:, inv]]


@st.composite
def table_pairs(draw):
    """1-2 tables with permutation columns, a B stack that is A itself, A
    relabeled by a drawn permutation s, or unrelated, and a colouring that
    is None, carried over by s (cB[s(x)] = cA[x]) or random.

    A stack is either random columns (n <= 5), whose automorphism group is
    nearly always trivial, or high-symmetry tables (n <= 6) under a drawn
    relabeling, whose groups reach several transversal levels."""
    symmetric = draw(st.booleans())
    n = draw(st.integers(1, 6 if symmetric else 5))
    k = draw(st.integers(1, 2))

    def stack():
        if symmetric:
            s = np.array(draw(st.permutations(range(n))), dtype=np.int64)
            return [relabel(draw(st.sampled_from(symmetric_tables(n))), s) for _ in range(k)]
        return [
            np.array([draw(st.permutations(range(n))) for _ in range(n)], dtype=np.int64).T
            for _ in range(k)
        ]

    def labels():
        return np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int64)

    tables_a = stack()
    s = np.arange(n)
    kind = draw(st.sampled_from(["same", "relabeled", "unrelated"]))
    if kind == "same":
        tables_b = tables_a
    elif kind == "relabeled":
        s = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        tables_b = [relabel(t, s) for t in tables_a]
    else:
        tables_b = stack()
    colouring = draw(st.sampled_from([None, "carried", "random"]))
    if colouring is None:
        colours = None
    elif colouring == "carried":
        cA = labels()
        cB = np.empty_like(cA)
        cB[s] = cA
        colours = (cA, cB)
    else:
        colours = (labels(), labels())
    return tables_a, tables_b, colours


def witness(tables_a, tables_b, colours=None):
    """first_bijection from tables_a onto tables_b, called as are_isomorphic
    calls it: only once the invariant multisets, joined to the colours,
    agree."""
    a, b = (np.stack([np.asarray(t, dtype=np.int64) for t in ts]) for ts in (tables_a, tables_b))
    inv_a, inv_b = _search._invariants(a), _search._invariants(b)
    if colours is not None:
        colours = tuple(np.asarray(c, dtype=np.int64) for c in colours)
        inv_a, inv_b = list(zip(inv_a, colours[0].tolist())), list(zip(inv_b, colours[1].tolist()))
    if Counter(inv_a) != Counter(inv_b):
        return None
    return first_bijection(_kernels.closure_plan(a), b, _search._classes(inv_a, inv_b), colours)


class TestEngineOracle:
    @settings(max_examples=300)
    @given(table_pairs())
    def test_all_bijections_in_order_and_first_witness(self, pair):
        # every map A -> B is the witness composed with an automorphism of
        # A that keeps cA
        tables_a, tables_b, colours = pair
        expected = bijections_oracle(tables_a, tables_b, colours)
        f = witness(tables_a, tables_b, colours)
        assert ([] if f is None else [f.tolist()]) == expected[:1]
        if f is not None:
            cA = None if colours is None else (colours[0], colours[0])
            got = f[table_bijections(Side(tables_a), cA)]
            assert [g.tolist() for g in got[np.lexsort(got.T[::-1])]] == expected

    @settings(max_examples=150)
    @given(table_pairs())
    def test_coloured_self_bijections(self, pair):
        # with cA != cB the listing is a covering lift's: the witness
        # composed with the automorphisms keeping cA
        tables_a, _, colours = pair
        got = table_bijections(Side(tables_a), colours)
        assert [f.tolist() for f in got] == bijections_oracle(tables_a, tables_a, colours)


class TestSearchDepth:
    def test_depth_beyond_the_recursion_limit(self):
        # the trivial quandle's search assigns one element per level, with
        # no image forced, so a recursive search would nest n frames deep
        n = 1100
        t = np.broadcast_to(np.arange(n)[:, None], (n, n))
        assert witness([t], [t]).tolist() == list(range(n))


def counter(monkeypatch, module, name):
    """A list that grows by one at each call of module.name."""
    calls = []
    f = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return f(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def closures(monkeypatch):
    return counter(monkeypatch, _kernels, "closure_extend")


@pytest.fixture
def searches(monkeypatch):
    return counter(monkeypatch, _search, "_first_leaf")


@pytest.fixture
def plans(monkeypatch):
    return counter(monkeypatch, _kernels, "closure_plan")


class TestWork:
    """Closure calls and first-leaf searches of whole automorphism
    searches.  The leaf-by-leaf engine made 13,699 and 795 closure calls
    for the first two groups below; one search per image of each base point
    made 119, 338 and 1,632 closure calls in 21, 63 and 144 searches.
    Before the closure plan, fixing the base points took one closure each,
    34, 128 and 586 calls in all; the plan build makes none.  On the
    first-free base the holomorphs took 122 and 578 closure calls in 31
    and 61 searches; the generating base takes more searches, each far
    shorter."""

    def test_trivial_quandle_7(self, closures, searches, plans):
        assert quandle_aut(trivial_quandle(7)).order == 5040
        assert len(closures) == 27
        assert len(searches) == 6
        assert len(plans) == 1

    def test_holomorph_r5(self, closures, searches, plans):
        b = holomorph_biquandle(dihedral_quandle(5))
        closures.clear()
        searches.clear()
        plans.clear()
        assert biquandle_aut(b).order == 20
        assert len(closures) == 58
        assert len(searches) == 38
        assert len(plans) == 1

    def test_holomorph_r7(self, closures, searches, plans):
        b = holomorph_biquandle(dihedral_quandle(7))
        closures.clear()
        searches.clear()
        plans.clear()
        g = biquandle_aut(b)
        assert g.order == 42
        assert hashlib.sha256(g.rows.tobytes()).hexdigest()[:16] == "26931ae27e5cec1f"
        assert len(closures) == 128
        assert len(searches) == 88
        assert len(plans) == 1

    def test_holomorph_theorem_at_p_11(self, monkeypatch, closures):
        """The paper's holomorph theorem at p = 11, n = 1,210: on the
        first-free base its listing made 271,485 closure calls.  The rows
        are pinned as that listing gave them."""
        listed = []
        aut = automorphisms.biquandle_aut
        monkeypatch.setattr(automorphisms, "biquandle_aut", lambda b: listed.append(aut(b)) or listed[-1])
        assert verify_holomorph_aut(dihedral_quandle(11))
        assert len(closures) <= 1000
        (g,) = listed
        assert g.order == 110
        assert hashlib.sha256(g.rows.tobytes()).hexdigest() == (
            "e799990ab0b6ca17780f5b3d93b0f23cb7618b34a6439c8886913103989fe128"
        )

    @pytest.mark.parametrize("p, calls, pin", [(5, 63, "b4af5ec3f8876db5"), (7, 128, "325d8606c7437d47")])
    def test_witness_against_a_relabelled_holomorph(self, closures, p, calls, pin):
        # are_isomorphic's witness search, the least bijection, pinned with
        # its work
        b = holomorph_biquandle(dihedral_quandle(p))
        s = np.random.default_rng(p).permutation(b.n)
        c = FiniteBiquandle(relabel(b.under, s), relabel(b.over, s))
        closures.clear()
        f = are_isomorphic(b, c).array()
        assert len(closures) == calls
        assert hashlib.sha256(f.tobytes()).hexdigest()[:16] == pin
        assert np.array_equal(relabel(b.under, f), c.under) and np.array_equal(relabel(b.over, f), c.over)

    def test_classification_builds_one_plan_per_searched_representative(self, monkeypatch, plans):
        # are_isomorphic(r, q) searches with r's plan, kept by r
        searched = {}
        search = enumeration.first_bijection

        def recorded(plan, *args, **kwargs):
            searched[id(plan)] = plan
            return search(plan, *args, **kwargs)

        monkeypatch.setattr(enumeration, "first_bijection", recorded)
        reps = []
        for q in enumerate_quandles(4):
            if all(are_isomorphic(r, q) is None for r in reps):
                reps.append(q)
        assert len(reps) == 7
        assert 0 < len(plans) <= len(searched)
        kept = [r._side().witness_plan for r in reps]
        assert all(any(plan is p for p in kept) for plan in searched.values())


class TestListingMemo:
    """An object compiles its tables for listings once (invariants and the
    generating plan), and every listing still runs the whole search."""

    @pytest.mark.parametrize(
        "make, rows",
        [
            (lambda: holomorph_biquandle(dihedral_quandle(5)), lambda b: biquandle_aut(b).rows),
            (lambda: dihedral_group(6), lambda g: np.array([a.images for a in automorphism_group(g)])),
        ],
        ids=["Hol(R_5)", "D6"],
    )
    def test_compiled_once_searched_every_call(self, monkeypatch, closures, plans, make, rows):
        x = make()  # Hol(R_5) is built from Aut(R_5)
        invariants = counter(monkeypatch, _search, "_invariants")
        plans.clear()
        counts, listings = [], []
        for _ in range(2):
            closures.clear()
            listings.append(rows(x))
            counts.append(len(closures))
        assert len(invariants) == 1 and len(plans) == 1
        assert counts[0] == counts[1] > 0
        assert np.array_equal(*listings)

    def test_witness_search_stays_first_free(self, closures):
        # a listing builds the generating plan beside the witness plan,
        # which keeps the base 0, 1, 2, ... and the least witness
        b = holomorph_biquandle(dihedral_quandle(5))
        biquandle_aut(b)
        assert b._side().listing_plan.base == [4, 1, 2, 5, 0]
        assert b._side().witness_plan.base == [0, 1, 2, 3, 4, 5]
        s = np.random.default_rng(5).permutation(b.n)
        c = FiniteBiquandle(relabel(b.under, s), relabel(b.over, s))
        closures.clear()
        f = are_isomorphic(b, c).array()
        assert len(closures) == 63
        assert hashlib.sha256(f.tobytes()).hexdigest()[:16] == "b4af5ec3f8876db5"


class TestListingCap:
    def test_order_above_the_cap_is_refused_before_listing(self, monkeypatch):
        t = trivial_quandle(7).table
        monkeypatch.setattr(_search, "MAX_LISTED", 5040)
        assert len(table_bijections(Side([t]))) == 5040
        monkeypatch.setattr(_search, "MAX_LISTED", 5039)
        with pytest.raises(DomainError, match="can be listed"):
            table_bijections(Side([t]))
        # a witness search lists nothing, so the cap does not apply
        assert witness([t], [t]).tolist() == list(range(7))

    def test_trivial_quandle_11(self, closures):
        # the levels fill deepest first, so the refusal comes once 10! of
        # the 11! automorphisms are known; one search per image of each
        # base point took 426 closures to refuse
        with pytest.raises(DomainError, match="can be listed") as refused:
            quandle_aut(trivial_quandle(11))
        (at_least,) = map(int, re.findall(r"at least (\d+) elements", str(refused.value)))
        assert _search.MAX_LISTED < at_least <= math.factorial(11)
        assert len(closures) <= 65


    @pytest.mark.parametrize(
        "make, listing, order, cap",
        [
            (lambda: holomorph_biquandle(dihedral_quandle(7)), biquandle_aut, 42, 20),
            (lambda: direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)), automorphism_group, 168, 100),
        ],
        ids=["Hol(R_7)", "Z2^3"],
    )
    def test_refusal_on_the_generating_base_is_a_lower_bound(self, monkeypatch, make, listing, order, cap):
        monkeypatch.setattr(_search, "MAX_LISTED", cap)
        with pytest.raises(DomainError, match="can be listed") as refused:
            listing(make())
        (at_least,) = map(int, re.findall(r"at least (\d+) elements", str(refused.value)))
        assert cap < at_least <= order


def column_cycle_type(col):
    """Sorted cycle lengths of the map i -> col[i], one walk per cycle."""
    seen = [False] * len(col)
    out = []
    for i in range(len(col)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = col[j]
            length += 1
        out.append(length)
    return tuple(sorted(out))


def cycles_oracle(images):
    """The cycles of a permutation, fixed points included, each from its
    least member, in order of that member."""
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = images[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = images[j]
        out.append(cyc)
    return out


def union_roots(n, cols):
    """A representative of each of the n elements' class under the arrows
    a -> col[a] of every map col (union-find); equal roots mean the same
    class."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for col in cols:
        for a, b in enumerate(col):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return [find(a) for a in range(n)]


def partition(classes):
    """A set partition as a sorted list of sorted blocks."""
    return sorted(sorted(c) for c in classes)


def roots_partition(roots):
    blocks = {}
    for a, root in enumerate(roots):
        blocks.setdefault(root, []).append(a)
    return partition(blocks.values())


def table_columns(tables):
    return [col for t in tables for col in t.T.tolist()]


def invariants_oracle(tables):
    """_search._invariants as one walk per column: the cycle type of every
    column, and the union-find over every column of every table."""
    roots = union_roots(tables.shape[1], table_columns(tables))
    size = Counter(roots)
    cols = [t.T.tolist() for t in tables]
    return [
        (
            tuple(column_cycle_type(c[a]) for c in cols),
            tuple(c[a][a] == a for c in cols),
            size[roots[a]],
        )
        for a in range(tables.shape[1])
    ]


def stacked(x):
    return np.stack([x.table] if isinstance(x, FiniteQuandle) else [x.under, x.over])


@st.composite
def repeated_column_tables(draw):
    """1-2 tables of order n <= 8 whose columns are drawn from a pool of
    1-3 permutations, so most columns repeat."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    k = draw(st.integers(1, 2))
    picks = draw(st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n), min_size=k, max_size=k))
    return np.array(picks, dtype=np.int64).transpose(0, 2, 1)


class TestInvariants:
    """_invariants walks each distinct column once; the per-column walk is
    its oracle."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_holomorph(self, p):
        t = stacked(holomorph_biquandle(dihedral_quandle(p)))
        assert _search._invariants(t) == invariants_oracle(t)

    def test_dihedral_301(self):
        t = stacked(dihedral_quandle(301))
        assert _search._invariants(t) == invariants_oracle(t)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_quandle_of_order_n(self, n):
        for q in enumerate_quandles(n):
            assert _search._invariants(stacked(q)) == invariants_oracle(stacked(q))

    @settings(max_examples=200)
    @given(repeated_column_tables())
    def test_repeated_columns(self, tables):
        assert _search._invariants(tables) == invariants_oracle(tables)

    def test_orbit_outputs_are_unchanged(self):
        # core.orbits pinned as the union-find gave them
        qs = [q for n in range(1, 6) for q in enumerate_quandles(n)]
        qs += [dihedral_quandle(301), trivial_quandle(9)]
        got = [orbits(q) for q in qs]
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "2daa1397ad3a00cc"
        for q, lists in zip(qs, got):
            assert lists == partition(lists) == roots_partition(union_roots(q.n, q.table.T.tolist()))
        t = stacked(holomorph_biquandle(dihedral_quandle(5)))
        walked = _search.walk_orbits(t.shape[1], table_columns(t))
        assert partition(walked) == roots_partition(union_roots(t.shape[1], table_columns(t)))
        for f in itertools.permutations(range(5)):
            assert partition(_search.walk_orbits(5, (f,))) == roots_partition(union_roots(5, [f]))


def continuation_map(diagram):
    """The map links._relations walks: input -> output at virtual crossings
    and splices, every other arc to itself."""
    index = diagram.arc_index
    nxt = list(range(diagram.arc_count))
    for c in diagram.crossings:
        if isinstance(c, links.Virtual):
            nxt[index[c.in1]] = index[c.out1]
            nxt[index[c.in2]] = index[c.out2]
    for out_arc, in_arc in diagram.closures:
        nxt[index[out_arc]] = index[in_arc]
    return nxt


def relations_oracle(diagram):
    """links._relations with the color variables read off the union-find of
    the continuation map, numbered by first arc."""
    roots = union_roots(diagram.arc_count, [continuation_map(diagram)])
    var = {}
    for root in roots:
        var.setdefault(root, len(var))
    watch = [[] for _ in var]
    for c in diagram.crossings:
        if isinstance(c, links.Classical):
            e = (c.in_under, c.in_over, c.out_under, c.out_over)
            rel = tuple(var[roots[diagram.arc_index[a]]] for a in (e if c.sign > 0 else e[2:] + e[:2]))
            for v in set(rel):
                watch[v].append(rel)
    return watch


@st.composite
def permutation_families(draw):
    n = draw(st.integers(1, 12))
    return n, draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))


class TestWalkOrbits:
    """walk_orbits against the union-find and the per-cycle walks it
    replaced."""

    @settings(max_examples=300)
    @given(permutation_families())
    def test_permutation_families(self, family):
        n, maps = family
        assert partition(_search.walk_orbits(n, maps)) == roots_partition(union_roots(n, maps))
        for f in maps:
            walked = _search.walk_orbits(n, (f,))
            assert walked == cycles_oracle(f)
            assert tuple(sorted(map(len, walked))) == column_cycle_type(f)
            p = Permutation(tuple(f))
            assert p.cycles() == [tuple(c) for c in cycles_oracle(f) if len(c) > 1]
            assert p.cycle_type() == tuple(sorted(len(c) for c in cycles_oracle(f) if len(c) > 1))

    @settings(max_examples=300)
    @given(wired_diagrams(12))
    def test_links_shaped_maps(self, diagram):
        nxt = continuation_map(diagram)
        rev = list(range(len(nxt)))
        for a, b in enumerate(nxt):
            if a != b:
                rev[b] = a
        assert partition(_search.walk_orbits(len(nxt), (nxt, rev))) == roots_partition(union_roots(len(nxt), [nxt]))
        assert links._relations(diagram) == relations_oracle(diagram)
        succ = [diagram.arc_index[diagram.successor[a]] for a in diagram.arcs]
        assert diagram.components() == len(set(union_roots(len(succ), [succ])))

    @pytest.mark.parametrize("name", sorted(links.builtin_diagrams()))
    def test_builtin_diagrams(self, name):
        diagram = links.builtin_diagrams()[name]
        assert links._relations(diagram) == relations_oracle(diagram)
