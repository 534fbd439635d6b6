"""Table objects are immutable, and what they derive is built on first use.

FiniteQuandle, FiniteBiquandle and groups.FiniteGroup set each attribute
once: assigning or deleting one raises AttributeError and leaves the object
as it was, while pickle and copy still rebuild an equal object.  The column
inverses (tinv, under_inv, over_inv) belong to the object's one compiled
Side: no constructor inverts a column, the first read inverts each table
once, and later reads reuse them.
"""

import copy
import pickle

import numpy as np
import pytest

from biquandles import _kernels, core
from biquandles.combinators import holomorph_biquandle
from biquandles.core import (
    FiniteBiquandle,
    FiniteQuandle,
    associated_quandle,
    biquandle_of_quandle,
    check_biquandle,
    check_quandle,
    check_ybe,
    yang_baxter_map,
)
from biquandles.group_constructions import alexander_biquandle, core_quandle, dihedral_quandle, wada_biquandle
from biquandles.groups import FiniteGroup, cyclic_group, symmetric_group
from biquandles.links import coloring_count_biquandle, coloring_count_quandle, trefoil
from test_proven_constructors import CORPORA

R3 = dihedral_quandle(3)
ALEX = alexander_biquandle(7, 3, 2)
S3 = symmetric_group(3)

# per class: its attributes, and itself built by each of its constructors
BUILT = {
    "quandle": (
        ("n", "table", "tinv"),
        {
            "init": lambda: FiniteQuandle(R3.table),
            "proven": lambda: FiniteQuandle._proven(R3.table),
            "from_json": lambda: FiniteQuandle.from_json(R3.to_json()),
        },
    ),
    "biquandle": (
        ("n", "under", "over", "under_inv", "over_inv"),
        {
            "init": lambda: FiniteBiquandle(ALEX.under, ALEX.over),
            "proven": lambda: FiniteBiquandle._proven(ALEX.under, ALEX.over),
            "from_json": lambda: FiniteBiquandle.from_json(ALEX.to_json()),
        },
    ),
    "group": (
        ("n", "mul", "e", "inv", "name"),
        {
            "init": lambda: FiniteGroup(S3.mul, name="S3"),
            "from_json": lambda: FiniteGroup.from_json(S3.to_json()),
        },
    ),
}
CASES = [(kind, how) for kind, (_, builds) in BUILT.items() for how in builds]


def inverses(x):
    """The inverse tables an object holds."""
    if isinstance(x, FiniteQuandle):
        return [x.tinv]
    if isinstance(x, FiniteBiquandle):
        return [x.under_inv, x.over_inv]
    return [x.inv]


def other(value):
    """A value of the same type as value, and different from it."""
    if isinstance(value, np.ndarray):
        return np.zeros_like(value)
    return value + 1 if isinstance(value, int) else value + "'"


def count_inversions(monkeypatch):
    """The sizes of the tables whose columns are inverted from now on."""
    calls = []
    invert = _kernels.invert_columns

    def counted(t):
        calls.append(t.shape[0])
        return invert(t)

    monkeypatch.setattr(_kernels, "invert_columns", counted)
    monkeypatch.setattr(core, "_invert_columns", counted)
    return calls


@pytest.mark.parametrize("kind,how", CASES)
def test_attributes_cannot_be_rebound_or_deleted(kind, how):
    names, builds = BUILT[kind]
    x = builds[how]()
    held = {name: getattr(x, name) for name in names}
    text, h, inv = x.to_json(), hash(x), x.invariants()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, other(held[name]))
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert all(getattr(x, n) is held[n] for n in names)
        assert x.to_json() == text and hash(x) == h and x.invariants() == inv
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("kind,how", CASES)
@pytest.mark.parametrize("compiled", [False, True], ids=["fresh", "compiled"])
@pytest.mark.parametrize(
    "duplicate",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(kind, how, compiled, duplicate):
    names, builds = BUILT[kind]
    x = builds[how]()
    if compiled:
        x.invariants()
        inverses(x)
    y = duplicate(x)
    assert type(y) is type(x) and y == x and hash(y) == hash(x)
    assert y.invariants() == x.invariants()
    assert all(np.array_equal(a, b) for a, b in zip(inverses(y), inverses(x)))
    with pytest.raises(AttributeError):
        setattr(y, names[1], getattr(x, names[1]))


def test_the_stale_derivations_are_refused():
    # rebinding the tables used to leave derived tables and verdicts
    # behind; each assignment is now refused and the object stays whole
    b, c = alexander_biquandle(7, 3, 2), alexander_biquandle(7, 2, 3)
    with pytest.raises(AttributeError):
        b.under, b.over = c.under, c.over
    assert b == alexander_biquandle(7, 3, 2) != c
    assert coloring_count_biquandle(trefoil(), b) == coloring_count_biquandle(trefoil(), FiniteBiquandle(b.under, b.over))
    q = dihedral_quandle(3)
    with pytest.raises(AttributeError):
        q.table = np.zeros((3, 3), dtype=np.int64)
    bq = biquandle_of_quandle(q)
    assert check_ybe(bq) and check_biquandle(bq.under, bq.over).passed
    g = symmetric_group(3)
    with pytest.raises(AttributeError):
        g.mul = cyclic_group(6).mul
    assert check_quandle(core_quandle(g).table).passed
    w = wada_biquandle(g)
    assert check_biquandle(w.under, w.over).passed and check_ybe((w.under, w.over))


class TestLazyInverses:
    @pytest.mark.parametrize("name", CORPORA)
    def test_built_without_inverting_and_read_as_an_independent_inversion(self, monkeypatch, name):
        calls = count_inversions(monkeypatch)
        objs = [x for x in CORPORA[name]() if not isinstance(x, str)]
        assert objs and calls == []
        for x in objs:
            for t, inv in zip(x._tables(), inverses(x)):
                assert np.array_equal(inv, np.argsort(t, axis=0)) and not inv.flags.writeable
        assert len(calls) == sum(len(x._tables()) for x in objs)

    def test_holomorph_inverts_on_first_count_only(self, monkeypatch):
        calls = count_inversions(monkeypatch)
        b = holomorph_biquandle(dihedral_quandle(7))
        assert calls == []
        first = coloring_count_biquandle(trefoil(), b)
        assert calls == [b.n, b.n]
        assert coloring_count_biquandle(trefoil(), b) == first
        associated_quandle(b)
        yang_baxter_map(b)
        assert calls == [b.n, b.n]

    def test_each_table_inverted_on_its_own_first_read(self, monkeypatch):
        # associated_quandle and yang_baxter_map read over_inv alone
        calls = count_inversions(monkeypatch)
        b = holomorph_biquandle(dihedral_quandle(7))
        associated_quandle(b)
        yang_baxter_map(b)
        assert calls == [b.n]
        coloring_count_biquandle(trefoil(), b)
        assert calls == [b.n, b.n]

    def test_quandle_count_inverts_once(self, monkeypatch):
        calls = count_inversions(monkeypatch)
        q = dihedral_quandle(31)
        assert coloring_count_quandle(trefoil(), q) == coloring_count_quandle(trefoil(), q)
        assert calls == [31]
