"""The bijection engine against brute force over all n! permutations."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles import _kernels, _search
from biquandles._search import table_bijections
from biquandles.automorphisms import biquandle_aut, quandle_aut
from biquandles.combinators import holomorph_biquandle
from biquandles.errors import DomainError
from biquandles.group_constructions import dihedral_quandle, trivial_quandle
from biquandles.groups import small_groups


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


class TestEngineOracle:
    @settings(max_examples=300)
    @given(table_pairs())
    def test_all_bijections_in_order_and_first_witness(self, pair):
        tables_a, tables_b, colours = pair
        expected = bijections_oracle(tables_a, tables_b, colours)
        got = table_bijections(tables_a, tables_b, colours=colours)
        assert [f.tolist() for f in got] == expected
        got = table_bijections(tables_a, tables_b, limit=1, colours=colours)
        assert [f.tolist() for f in got] == expected[:1]


class TestSearchDepth:
    def test_depth_beyond_the_recursion_limit(self):
        # the trivial quandle's search assigns one element per level, with
        # no image forced, so a recursive search would nest n frames deep
        n = 1100
        t = np.broadcast_to(np.arange(n)[:, None], (n, n))
        (f,) = table_bijections([t], [t], limit=1)
        assert f.tolist() == list(range(n))


class TestWork:
    """Closure calls of whole automorphism searches, counted through the
    kernel module; the leaf-by-leaf engine this replaced made 13,699 and
    795 calls for the two groups below."""

    @pytest.fixture
    def closures(self, monkeypatch):
        calls = []
        extend = _kernels.closure_extend

        def counted(*args):
            calls.append(1)
            return extend(*args)

        monkeypatch.setattr(_kernels, "closure_extend", counted)
        return calls

    def test_trivial_quandle_7(self, closures):
        assert quandle_aut(trivial_quandle(7)).order == 5040
        assert len(closures) <= 119

    def test_holomorph_r5(self, closures):
        b = holomorph_biquandle(dihedral_quandle(5))
        closures.clear()
        assert biquandle_aut(b).order == 20
        assert len(closures) <= 338


class TestListingCap:
    def test_order_above_the_cap_is_refused_before_listing(self, monkeypatch):
        t = trivial_quandle(7).table
        monkeypatch.setattr(_search, "MAX_LISTED", 5040)
        assert len(table_bijections([t], [t])) == 5040
        # a witness search lists nothing, so the cap does not apply
        assert len(table_bijections([t], [t], limit=1)) == 1
        monkeypatch.setattr(_search, "MAX_LISTED", 5039)
        with pytest.raises(DomainError, match="can be listed"):
            table_bijections([t], [t])

    def test_trivial_quandle_11(self):
        t = trivial_quandle(11).table
        with pytest.raises(DomainError, match="can be listed"):
            table_bijections([t], [t])
