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


def bijections_oracle(tables_a, tables_b):
    """Every permutation mapping each A table onto its B table, sorted."""
    tables_a = [t.tolist() for t in tables_a]
    tables_b = [t.tolist() for t in tables_b]
    n = len(tables_a[0])
    return [list(f) for f in itertools.permutations(range(n)) if maps_onto(f, tables_a, tables_b)]


@st.composite
def table_pairs(draw):
    """1-2 tables of size n <= 5 with permutation columns, and a B stack
    that is A itself, A relabeled by a drawn permutation, or unrelated."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 2))

    def stack():
        return [
            np.array([draw(st.permutations(range(n))) for _ in range(n)], dtype=np.int64).T
            for _ in range(k)
        ]

    tables_a = stack()
    kind = draw(st.sampled_from(["same", "relabeled", "unrelated"]))
    if kind == "same":
        tables_b = tables_a
    elif kind == "relabeled":
        s = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        inv = np.argsort(s)
        tables_b = [s[t[inv][:, inv]] for t in tables_a]
    else:
        tables_b = stack()
    return tables_a, tables_b


class TestEngineOracle:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(table_pairs())
    def test_all_bijections_in_order_and_first_witness(self, pair):
        tables_a, tables_b = pair
        expected = bijections_oracle(tables_a, tables_b)
        assert [f.tolist() for f in table_bijections(tables_a, tables_b)] == expected
        assert [f.tolist() for f in table_bijections(tables_a, tables_b, limit=1)] == expected[:1]


class TestSearchDepth:
    def test_depth_beyond_the_recursion_limit(self):
        # the trivial quandle's search assigns one element per level, with
        # no image forced, so a recursive search would nest n frames deep
        n = 1100
        t = np.broadcast_to(np.arange(n)[:, None], (n, n))
        (f,) = table_bijections([t], [t], limit=1)
        assert f.tolist() == list(range(n))
