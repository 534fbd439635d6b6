"""The bijection engine against brute force over all n! permutations."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles._search import table_bijections


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


@st.composite
def table_pairs(draw):
    """1-2 tables of size n <= 5 with permutation columns, a B stack that is
    A itself, A relabeled by a drawn permutation s, or unrelated, and a
    colouring that is None, carried over by s (cB[s(x)] = cA[x]) or random."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 2))

    def stack():
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
        inv = np.argsort(s)
        tables_b = [s[t[inv][:, inv]] for t in tables_a]
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
