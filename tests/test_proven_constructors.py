"""The trust boundary: library constructors whose output a theorem proves
once their hypothesis checks pass build it without the axiom sweep
(FiniteQuandle._proven, FiniteBiquandle._proven).

Each corpus below is built by those constructors; every output passes an
independent check_quandle / check_biquandle, and the to_json() bytes of the
whole corpus, in order, are pinned (PINS, recorded when every constructor
still validated its tables).  The hypothesis test draws (phi, psi)
families for product_biquandle: an admissible draw builds a biquandle, and
an inadmissible one raises the hypothesis check's text (the plain-loop
oracle of test_hypothesis_checks).
"""

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles.automorphisms import quandle_aut
from biquandles.combinators import (
    holomorph_biquandle,
    product_biquandle,
    semidirect_biquandle,
    union_biquandle_constant,
)
from biquandles.core import (
    FiniteBiquandle,
    FiniteQuandle,
    biquandle_of_quandle,
    check_biquandle,
    check_quandle,
)
from biquandles.enumeration import enumerate_quandles
from biquandles.errors import DomainError
from biquandles.group_constructions import (
    alexander_biquandle,
    conj_quandle,
    core_quandle,
    dihedral_quandle,
    takasaki,
    trivial_quandle,
)
from biquandles.groups import small_groups
from helpers import constructed_biquandles_over_groups
from test_hypothesis_checks import AUT, Q, loop_product


def _holomorphs():
    return [holomorph_biquandle(dihedral_quandle(n)) for n in range(3, 12)] + [
        holomorph_biquandle(trivial_quandle(n)) for n in range(2, 5)
    ]


def _alexander():
    out = []
    for n in range(1, 41):
        units = [s for s in range(1, n + 1) if math.gcd(s, n) == 1]
        out += [alexander_biquandle(n, s, t) for s in units for t in units]
    return out


def _quandles():
    out = [trivial_quandle(n) for n in range(1, 9)] + [dihedral_quandle(n) for n in range(1, 41)]
    for g in small_groups(8):
        out += [conj_quandle(g, k) for k in range(-2, 3)] + [core_quandle(g)]
        if g.is_abelian():
            out.append(takasaki(g))
    return out


SMALL = [q for n in range(1, 4) for q in enumerate_quandles(n)]


def _unions():
    out = []
    for q1 in SMALL:
        for q2 in SMALL:
            out += [union_biquandle_constant(q1, q2, f, g) for f in quandle_aut(q1) for g in quandle_aut(q2)]
    return out


PRODUCT_FACTORS = ["T1", "T2", "T3", "R3", "R4"]


def _family(rng, pool, n):
    """n members of pool: constant, on two values, or arbitrary."""
    kind = int(rng.integers(3))
    if kind == 0:
        return (pool[int(rng.integers(len(pool)))],) * n
    if kind == 1:
        values = rng.integers(len(pool), size=2)
        return tuple(pool[int(values[rng.integers(2)])] for _ in range(n))
    return tuple(pool[int(i)] for i in rng.integers(len(pool), size=n))


def _products():
    """Seeded product_biquandle and semidirect_biquandle draws over small
    factors: each built biquandle, and the text of each refusal."""
    rng = np.random.default_rng(35)
    out = []
    for s1 in PRODUCT_FACTORS:
        for s2 in PRODUCT_FACTORS:
            q1, q2 = Q[s1], Q[s2]
            for _ in range(12):
                case = int(rng.integers(1, 3))
                phi, psi = _family(rng, AUT[s2], q1.n), _family(rng, AUT[s1], q2.n)
                try:
                    out.append(product_biquandle(q1, q2, phi, psi, case))
                except DomainError as e:
                    out.append(str(e))
                try:
                    out.append(semidirect_biquandle(q1, q2, psi))
                except DomainError as e:
                    out.append(str(e))
    return out


CORPORA = {
    "holomorphs": _holomorphs,
    "alexander_biquandles": _alexander,
    "over_groups": lambda: constructed_biquandles_over_groups(8),
    "quandles": _quandles,
    "unions": _unions,
    "products": _products,
}

# sha256 of the corpus's to_json() bytes (a refusal's text for a refused
# draw), one line each, recorded before the constructors built proven objects
PINS = {
    "holomorphs": "90fa45ecd5c2bd64d27d8bdca989da50344f04a4a01a2f09a447eaa773f251ed",
    "alexander_biquandles": "72342700e977cd77a3f29312a4fd11e6a568e357cba2cbf250b55ac84d80e9a0",
    "over_groups": "16d261c57feac1c5ea37ceb492ce0b04acd34dafbd1bf74b94db1c886638cd2d",
    "quandles": "c97fd11733a1d5c4a8179a7f3c8849b0b64a388cf2d04826ed72df7b196de530",
    "unions": "bc4aa39e34d32a0e99fb94976c35ae99761fefce9f15ae129570e68d73d146c4",
    "products": "c8062ff24203a525c1fc568187dcfad477418f3871abbd7d27b15089b3c585b1",
}


@functools.cache
def corpus(name):
    return CORPORA[name]()


def digest(objs):
    h = hashlib.sha256()
    for x in objs:
        h.update((x if isinstance(x, str) else x.to_json()).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", CORPORA)
def test_outputs_pass_an_independent_check(name):
    for x in corpus(name):
        if isinstance(x, FiniteBiquandle):
            assert check_biquandle(x.under, x.over).passed
        elif isinstance(x, FiniteQuandle):
            assert check_quandle(x.table).passed


@pytest.mark.parametrize("name", CORPORA)
def test_outputs_are_pinned(name):
    assert digest(corpus(name)) == PINS[name]


def test_proven_objects_equal_validated_ones():
    for b in corpus("holomorphs")[:4] + corpus("over_groups")[::7]:
        v = FiniteBiquandle(b.under, b.over)
        assert v == b and hash(v) == hash(b) and v.to_json() == b.to_json()
        assert all(np.array_equal(x, y) for x, y in ((v.under_inv, b.under_inv), (v.over_inv, b.over_inv)))
    for q in corpus("quandles")[::9]:
        v = FiniteQuandle(q.table)
        assert v == q and v.to_json() == q.to_json() and np.array_equal(v.tinv, q.tinv)
        assert biquandle_of_quandle(q) == FiniteBiquandle(q.table, np.broadcast_to(np.arange(q.n)[:, None], (q.n, q.n)))


@st.composite
def product_draws(draw):
    """Factors of order <= 3 and families (phi, psi) for one case, the
    constant side constant half the time so that both outcomes are drawn."""
    s1, s2 = draw(st.sampled_from(["T1", "T2", "T3", "R3"])), draw(st.sampled_from(["T1", "T2", "T3", "R3"]))
    case = draw(st.sampled_from([1, 2]))
    n1, n2 = Q[s1].n, Q[s2].n

    def family(pool, n, constant):
        pick = st.integers(0, len(pool) - 1)
        if constant:
            return (pool[draw(pick)],) * n
        values = [pool[draw(pick)] for _ in range(draw(st.integers(1, 2)))]
        return tuple(values[draw(st.integers(0, len(values) - 1))] for _ in range(n))

    constant = draw(st.booleans())
    phi = family(AUT[s2], n1, case == 2 and constant)
    psi = family(AUT[s1], n2, case == 1 and constant)
    return s1, s2, phi, psi, case


@settings(max_examples=300)
@given(product_draws())
def test_product_hypotheses_imply_the_axioms(draw):
    s1, s2, phi, psi, case = draw
    q1, q2 = Q[s1], Q[s2]
    want = loop_product(q1, q2, phi, psi, case)
    try:
        b = product_biquandle(q1, q2, phi, psi, case)
    except DomainError as e:
        assert f"DomainError: {e}" == want
    else:
        assert want is None
        assert check_biquandle(b.under, b.over).passed
