"""Relabeling a (bi)quandle changes none of its invariants."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles.automorphisms import biquandle_aut, quandle_aut
from biquandles.combinators import holomorph_biquandle, semidirect_biquandle, union_biquandle_constant
from biquandles.core import FiniteBiquandle, FiniteQuandle, Permutation
from biquandles.enumeration import are_isomorphic
from biquandles.groups import cyclic_group, symmetric_group
from biquandles.group_constructions import (
    alexander_biquandle,
    conj_quandle,
    dihedral_quandle,
    takasaki,
    trivial_quandle,
    wada_biquandle,
)
from biquandles.links import builtin_diagrams, coloring_count_biquandle, coloring_count_quandle
from biquandles.structures import biquandle_from_structure, inverse_inner_structure
from helpers import cycle

T2 = trivial_quandle(2)
CORPUS = [
    trivial_quandle(4),
    dihedral_quandle(3),
    dihedral_quandle(6),
    dihedral_quandle(12),
    conj_quandle(symmetric_group(3)),
    takasaki(cyclic_group(9)),
    wada_biquandle(cyclic_group(5)),
    wada_biquandle(symmetric_group(3)),
    alexander_biquandle(7, 2, 3),
    alexander_biquandle(8, 3, 5),
    union_biquandle_constant(T2, trivial_quandle(3), cycle(2), cycle(3)),
    holomorph_biquandle(T2),
    semidirect_biquandle(dihedral_quandle(3), T2, tuple(Permutation.identity(3) for _ in range(2))),
    biquandle_from_structure(inverse_inner_structure(dihedral_quandle(5))),
]


def tables(x):
    return [x.table] if isinstance(x, FiniteQuandle) else [x.under, x.over]


def relabel(x, s):
    """x carried along s: the table T becomes T' with T'[s(a), s(b)] = s(T[a, b])."""
    inv = np.argsort(s)
    ts = [s[t[inv][:, inv]] for t in tables(x)]
    return FiniteQuandle(*ts) if isinstance(x, FiniteQuandle) else FiniteBiquandle(*ts)


def invariants(x):
    """The aut order and the coloring count of every builtin diagram."""
    if isinstance(x, FiniteQuandle):
        aut, count = quandle_aut, coloring_count_quandle
    else:
        aut, count = biquandle_aut, coloring_count_biquandle
    return aut(x).order, {name: count(d, x) for name, d in builtin_diagrams().items()}


@functools.lru_cache(maxsize=None)
def corpus_invariants(i):
    return invariants(CORPUS[i])


@settings(max_examples=60)
@given(st.data())
def test_relabeling_keeps_invariants_and_is_witnessed(data):
    i = data.draw(st.integers(0, len(CORPUS) - 1))
    x = CORPUS[i]
    s = np.array(data.draw(st.permutations(range(x.n))), dtype=np.int64)
    y = relabel(x, s)
    assert invariants(y) == corpus_invariants(i)
    w = are_isomorphic(x, y)
    assert w is not None
    img = w.array()
    for tx, ty in zip(tables(x), tables(y)):
        assert np.array_equal(img[tx], ty[np.ix_(img, img)])
