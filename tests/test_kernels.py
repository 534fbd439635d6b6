"""The numpy kernels against plain-Python reference loops.

Each first-witness oracle below walks the same triples in lexicographic
order and stops at the first failure, so it pins both the verdict and the
witness; each all-witness oracle lists every failure in report order.
The plain loops only reach n <= 8, so the sweeps are also pinned at
n = 31 and 100 against numpy oracles that index each product as t[I, J].
"""

import itertools
import random
from operator import ne
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles import _kernels as K
from biquandles.combinators import holomorph_biquandle, union_quandle
from biquandles.core import (
    _bad_columns,
    _invert_columns,
    associated_quandle,
    check_biquandle,
    check_quandle,
    check_ybe,
    ybe_witness,
)
from biquandles.enumeration import enumerate_quandles, enumerate_trivial_structures
from biquandles.group_constructions import alexander_biquandle, dihedral_quandle, trivial_quandle, wada_biquandle
from biquandles.groups import cyclic_group, symmetric_group
from biquandles.structures import biquandle_from_structure


def random_tables(rng, n):
    t = np.array([rng.sample(range(n), n) for _ in range(n)], dtype=np.int64).T
    return t


# ---------------------------------------------------------------------------
# reference oracles


def r2_oracle(t):
    n, t = len(t), t.tolist()
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[t[a][c]][t[b][c]]:
                    return a, b, c
    return None


def exchange_oracle(u, o):
    n, u, o = len(u), u.tolist(), o.tolist()
    for x in range(n):
        for y in range(n):
            xuy = u[x][y]
            xoy = o[x][y]
            for z in range(n):
                zuy = u[z][y]
                zoy = o[z][y]
                if u[xuy][zuy] != u[u[x][z]][o[y][z]]:
                    return 0, x, y, z
                if o[xuy][zuy] != u[o[x][z]][o[y][z]]:
                    return 1, x, y, z
                if o[xoy][zoy] != o[o[x][z]][u[y][z]]:
                    return 2, x, y, z
    return None


def ybe_oracle(u, o, oinv):
    n, u, oinv = len(u), u.tolist(), oinv.tolist()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                # left composite, innermost (r x id) first
                w = oinv[b][a]
                p, q, r_ = w, u[a][w], c
                w = oinv[r_][q]
                q, r_ = w, u[q][w]
                w = oinv[q][p]
                l1, l2, l3 = w, u[p][w], r_
                # right composite, innermost (id x r) first
                w = oinv[c][b]
                p, q, r_ = a, w, u[b][w]
                w = oinv[q][p]
                p, q = w, u[p][w]
                w = oinv[r_][q]
                r1, r2, r3 = p, w, u[q][w]
                if l1 != r1 or l2 != r2 or l3 != r3:
                    return a, b, c
    return None


def closure_oracle(tA, tB, img, pre):
    """Stack-based closure; same contract as K.closure_extend."""
    k = tA.shape[0]
    dom = [int(a) for a in np.flatnonzero(img >= 0)]
    stack = list(dom)
    while stack:
        a = stack.pop()
        fa = img[a]
        di = 0
        while di < len(dom):
            d = dom[di]
            fd = img[d]
            for t in range(k):
                for c, fc in ((tA[t, a, d], tB[t, fa, fd]), (tA[t, d, a], tB[t, fd, fa])):
                    if img[c] == -1:
                        if pre[fc] != -1:
                            return False
                        img[c] = fc
                        pre[fc] = c
                        dom.append(int(c))
                        stack.append(int(c))
                    elif img[c] != fc:
                        return False
            di += 1
    return True


# all-witness oracles: every failure, in the order the reports list them


def r2_all_oracle(t):
    """Every (a, b, c) violating (a*b)*c == (a*c)*(b*c), in (a, b, c) order."""
    n, t = len(t), t.tolist()
    return [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if t[t[a][b]][c] != t[t[a][c]][t[b][c]]
    ]


def exchange_all_oracle(u, o):
    """Every violated exchange identity as (x, code, y, z), in that order."""
    n, u, o = len(u), u.tolist(), o.tolist()
    sides = (
        lambda x, y, z: (u[u[x][y]][u[z][y]], u[u[x][z]][o[y][z]]),
        lambda x, y, z: (o[u[x][y]][u[z][y]], u[o[x][z]][o[y][z]]),
        lambda x, y, z: (o[o[x][y]][o[z][y]], o[o[x][z]][u[y][z]]),
    )
    return [
        (x, code, y, z)
        for x in range(n)
        for code, side in enumerate(sides)
        for y in range(n)
        for z in range(n)
        if ne(*side(x, y, z))
    ]


def pairmap_repeat_oracle(u, o):
    """Points (x, y), in (x, y) order, whose image (y o x, x u y) under the
    pair map an earlier point already took."""
    n, u, o = len(u), u.tolist(), o.tolist()
    seen, out = set(), []
    for x in range(n):
        for y in range(n):
            image = (o[y][x], u[x][y])
            if image in seen:
                out.append((x, y))
            seen.add(image)
    return out


# 2-D-index numpy oracles: each product x op y read as t[X, Y] on two
# broadcast index grids, which raises on an out-of-range entry


def r2_slabs_2d(t):
    for a in range(t.shape[0]):
        yield a, t[t[a]] != t[t[a][None, :], t]


def exchange_slabs_2d(u, o):
    for x in range(u.shape[0]):
        xu = u[x][:, None]
        xo = o[x][:, None]
        yield x, (
            u[xu, u.T] != u[u[x][None, :], o],
            o[xu, u.T] != u[o[x][None, :], o],
            o[xo, o.T] != o[o[x][None, :], u],
        )


def ybe_violation_2d(u, o, oinv):
    n = u.shape[0]

    def rmap(x, y):
        w = oinv[y, x]
        return w, u[x, w]

    B, C = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for a in range(n):
        A = np.full_like(B, a)
        p, q = rmap(A, B)
        q, r_ = rmap(q, C)
        l1, l2 = rmap(p, q)
        q2, r2_ = rmap(B, C)
        p2, q2 = rmap(A, q2)
        q3, r3 = rmap(q2, r2_)
        bad = (l1 != p2) | (l2 != q3) | (r_ != r3)
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            return a, i, j
    return None


# ---------------------------------------------------------------------------
# corpus: the seeded random tables plus R_5, Wada(Z_4) and Alexander(5,3,2)

R5 = dihedral_quandle(5)
WADA4 = wada_biquandle(cyclic_group(4))
ALEX532 = alexander_biquandle(5, 3, 2)


def table_pairs(seed, count=40):
    rng = random.Random(seed)
    pairs = [(WADA4.under, WADA4.over), (ALEX532.under, ALEX532.over)]
    for _ in range(count):
        n = rng.randrange(1, 6)
        pairs.append((random_tables(rng, n), random_tables(rng, n)))
    return pairs


class TestOracleParity:
    def test_r2_on_valid_and_broken_tables(self):
        rng = random.Random(11)
        tables = [R5.table, WADA4.under, ALEX532.under]
        tables += [random_tables(rng, rng.randrange(1, 6)) for _ in range(40)]
        for t in tables:
            assert K.r2_violation(t) == r2_oracle(t)
        assert K.r2_violation(R5.table) is None

    def test_exchange_parity(self):
        for u, o in table_pairs(12):
            assert K.exchange_violation(u, o) == exchange_oracle(u, o)
        assert K.exchange_violation(WADA4.under, WADA4.over) is None

    def test_ybe_parity(self):
        for u, o in table_pairs(13):
            oinv = _invert_columns(o)
            assert K.ybe_violation(u, o, oinv) == ybe_oracle(u, o, oinv)
        assert K.ybe_violation(ALEX532.under, ALEX532.over, ALEX532.over_inv) is None

    @pytest.mark.parametrize("case", ["R5", "random"])
    def test_closure_parity(self, case):
        rng = random.Random(14)
        outcomes = set()
        for _ in range(60):
            if case == "R5":
                n, tA, tB = 5, np.stack([R5.table]), np.stack([R5.table])
            else:
                n = rng.randrange(1, 6)
                tA = np.stack([random_tables(rng, n) for _ in range(2)])
                tB = np.stack([random_tables(rng, n) for _ in range(2)])
            img1 = np.full(n, -1, dtype=np.int64)
            pre1 = np.full(n, -1, dtype=np.int64)
            a, b = rng.randrange(n), rng.randrange(n)
            img1[a] = b
            pre1[b] = a
            img2, pre2 = img1.copy(), pre1.copy()
            ok = K.closure_extend(tA, tB, img1, pre1)
            assert ok is closure_oracle(tA, tB, img2, pre2)
            if ok:
                assert np.array_equal(img1, img2) and np.array_equal(pre1, pre2)
            outcomes.add(ok)
        if case == "random":
            assert outcomes == {True, False}


class TestClosureInjectivity:
    def test_numpy_closure_rejects_forced_collision(self):
        # crafted tables that funnel two elements onto one image through
        # rounds that never revisit the first witness
        # from img = {0 -> 0}: 0*0 forces 1 -> 1, then 1*0 forces 2 -> 3,
        # then 2*0 forces 3 -> 3, colliding with the image of 2
        tA = np.array([[
            [1, 0, 0, 0],
            [2, 1, 1, 1],
            [3, 2, 2, 2],
            [3, 3, 3, 3],
        ]], dtype=np.int64)
        tB = np.array([[
            [1, 0, 0, 0],
            [3, 1, 1, 1],
            [2, 2, 2, 2],
            [3, 3, 3, 3],
        ]], dtype=np.int64)
        for closure in (K.closure_extend, closure_oracle):
            img = np.full(4, -1, dtype=np.int64)
            pre = np.full(4, -1, dtype=np.int64)
            img[0] = 0
            pre[0] = 0
            assert closure(tA, tB, img, pre) is False

    def test_closure_rejects_collision_hidden_from_its_batch(self):
        # from img = {0 -> 0, 1 -> 1} every product forces 2 -> 1; no batch
        # holds 1 itself, so only the final consistency sweep sees the clash
        tA = np.full((1, 3, 3), 2, dtype=np.int64)
        tB = np.ones((1, 3, 3), dtype=np.int64)
        for closure in (K.closure_extend, closure_oracle):
            img = np.array([0, 1, -1], dtype=np.int64)
            pre = np.array([0, 1, -1], dtype=np.int64)
            assert closure(tA, tB, img, pre) is False


@st.composite
def closed_seed_and_fresh_pair(draw):
    """Tables tA, tB (k <= 2, n <= 6), a closed partial map img/pre on
    m >= 1 elements, and a fresh assignment a -> b, a unmapped, b unused.

    Rows and columns 0..m-1 of each A table form a subtable.  The seed map
    is a drawn permutation s of 0..m-1, and the B subtables are the A ones
    relabeled by s, so the seed is closed.  Outside the subtables, tB is tA
    relabeled by s extended to all n points, or drawn freely."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, 2))

    def entries():
        cells = st.lists(st.integers(0, n - 1), min_size=k * n * n, max_size=k * n * n)
        return np.array(draw(cells), dtype=np.int64).reshape(k, n, n)

    s = np.array(draw(st.permutations(range(m))) + draw(st.permutations(range(m, n))), dtype=np.int64)
    tA = entries()
    tA[:, :m, :m] %= m
    inv = np.argsort(s)
    tB = s[tA[:, inv][:, :, inv]]
    if draw(st.booleans()):
        free = entries()
        free[:, :m, :m] = tB[:, :m, :m]
        tB = free
    img = np.full(n, -1, dtype=np.int64)
    pre = np.full(n, -1, dtype=np.int64)
    img[:m] = s[:m]
    pre[s[:m]] = np.arange(m)
    return tA, tB, img, pre, draw(st.integers(m, n - 1)), draw(st.integers(m, n - 1))


class TestClosureFrontier:
    """closure_extend(..., new=[a]) on a closed map plus a -> b agrees with
    the whole-domain call and with the stack oracle."""

    @settings(max_examples=300)
    @given(closed_seed_and_fresh_pair())
    def test_frontier_call_matches_whole_domain_and_oracle(self, case):
        tA, tB, img, pre, a, b = case
        assert closure_oracle(tA, tB, img.copy(), pre.copy())
        img[a] = b
        pre[b] = a
        runs = []
        for closure, kwargs in (
            (K.closure_extend, {"new": [a]}),
            (K.closure_extend, {}),
            (closure_oracle, {}),
        ):
            img_i, pre_i = img.copy(), pre.copy()
            runs.append((closure(tA, tB, img_i, pre_i, **kwargs), img_i, pre_i))
        (ok, img1, pre1), *others = runs
        for ok_i, img_i, pre_i in others:
            assert ok is ok_i
            if ok:
                assert np.array_equal(img1, img_i) and np.array_equal(pre1, pre_i)

    def test_frontier_rejects_product_landing_on_used_image(self):
        # {0 -> 0} is closed; adding 1 -> 1 sends the unmapped product
        # 1*0 = 2 to 1*0 = 0 in B, already the image of 0, while no product
        # of the batch is 0 itself
        tA = np.full((1, 3, 3), 2, dtype=np.int64)
        tA[0, 0, 0] = 0
        tB = np.zeros((1, 3, 3), dtype=np.int64)
        for closure, kwargs in ((K.closure_extend, {"new": [1]}), (closure_oracle, {})):
            img = np.array([0, 1, -1], dtype=np.int64)
            pre = np.array([0, 1, -1], dtype=np.int64)
            assert closure(tA, tB, img, pre, **kwargs) is False


class TestWitnessModes:
    """The default report's witness is the first one of the all-witness sweep."""

    def test_quandle_r2_witness_is_first(self):
        rng = random.Random(15)
        seen = 0
        for _ in range(60):
            t = random_tables(rng, rng.randrange(1, 6))
            one = [w for ax, w in check_quandle(t).violations if ax == "r2"]
            every = [w for ax, w in check_quandle(t, all_witnesses=True).violations if ax == "r2"]
            assert one == every[:1]
            seen += bool(one)
        assert seen

    def test_column_witnesses_ascend(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randrange(1, 6)
            u, o = (np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)]) for _ in "uo")
            quandle = (check_quandle(u), check_quandle(u, all_witnesses=True))
            biquandle = (check_biquandle(u, o), check_biquandle(u, o, all_witnesses=True))
            for axiom, t, (one, every) in (
                ("r1", u, quandle),
                ("b2-under-columns", u, biquandle),
                ("b2-over-columns", o, biquandle),
            ):
                cols = [(b,) for b in range(n) if sorted(t[:, b]) != list(range(n))]
                assert [w for ax, w in every.violations if ax == axiom] == cols
                assert [w for ax, w in one.violations if ax == axiom] == cols[:1]

    def test_biquandle_b3_witness_is_min_by_kernel_order(self):
        codes = {"b3a": 0, "b3b": 1, "b3c": 2}
        seen = 0
        for u, o in table_pairs(16, count=60):
            one = [(w, codes[ax]) for ax, w in check_biquandle(u, o).violations if ax in codes]
            every = [
                (w, codes[ax])
                for ax, w in check_biquandle(u, o, all_witnesses=True).violations
                if ax in codes
            ]
            assert one == ([min(every, key=lambda e: (*e[0], e[1]))] if every else [])
            seen += bool(one)
        assert seen


B3_CODES = {"b3a": 0, "b3b": 1, "b3c": 2}


def assert_quandle_report_matches_oracle(t):
    every = check_quandle(t, all_witnesses=True).violations
    assert [w for ax, w in every if ax == "r2"] == r2_all_oracle(t)


def assert_biquandle_report_matches_oracles(u, o):
    every = check_biquandle(u, o, all_witnesses=True).violations
    b3 = [(w[0], B3_CODES[ax], *w[1:]) for ax, w in every if ax in B3_CODES]
    assert b3 == exchange_all_oracle(u, o)
    assert [w for ax, w in every if ax == "b2-pairmap"] == pairmap_repeat_oracle(u, o)


@st.composite
def permutation_column_tables(draw, count):
    """count tables of one size n <= 5 whose columns are permutations."""
    n = draw(st.integers(1, 5))
    return [
        np.array([draw(st.permutations(range(n))) for _ in range(n)], dtype=np.int64).T
        for _ in range(count)
    ]


@st.composite
def in_range_tables(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.int64)


ORACLE_SETTINGS = settings(max_examples=150)


class TestAllWitnessOracles:
    """Both report modes read the kernels' row sweeps, so only these plain
    loops can catch a sweep bug the two modes share."""

    def test_quandle_r2_on_seeded_corpus(self):
        rng = random.Random(18)
        tables = [R5.table, WADA4.under] + [random_tables(rng, rng.randrange(1, 6)) for _ in range(60)]
        for t in tables:
            assert_quandle_report_matches_oracle(t)
        assert any(r2_all_oracle(t) for t in tables)

    def test_biquandle_b3_and_pair_map_on_seeded_corpus(self):
        pairs = table_pairs(19, count=60)
        for u, o in pairs:
            assert_biquandle_report_matches_oracles(u, o)
        assert any(exchange_all_oracle(u, o) for u, o in pairs)
        assert any(pairmap_repeat_oracle(u, o) for u, o in pairs)

    @ORACLE_SETTINGS
    @given(in_range_tables())
    def test_quandle_r2_on_drawn_tables(self, t):
        assert_quandle_report_matches_oracle(t)

    @ORACLE_SETTINGS
    @given(permutation_column_tables(2))
    def test_biquandle_b3_and_pair_map_on_drawn_tables(self, tables):
        assert_biquandle_report_matches_oracles(*tables)


class TestPublicKernels:
    def test_kernels_return_none_on_valid_input(self):
        assert K.r2_violation(R5.table) is None
        w = wada_biquandle(cyclic_group(5))
        assert K.exchange_violation(w.under, w.over) is None
        assert K.ybe_violation(w.under, w.over, w.over_inv) is None

    def test_kernels_return_witness(self):
        a = np.arange(3)
        under = (a[:, None] + a[None, :]) % 3
        over = np.broadcast_to(a[:, None], (3, 3)).copy()
        code, x, y, z = K.exchange_violation(under, over)
        assert code in (0, 1, 2)
        ybe = K.ybe_violation(under, over, _invert_columns(over))
        r2 = K.r2_violation(under)
        # witnesses end up in JSON, which takes Python ints only
        assert all(type(v) is int for v in (code, x, y, z, *ybe, *r2))


HOL5 = holomorph_biquandle(R5)            # n = 100
ALEX31 = alexander_biquandle(31, 3, 2)


def corrupted(rng, t, kind, cell=None):
    """t with one entry changed, or two entries of one column swapped (the
    columns stay bijective); cell fixes the entry or the column's first
    entry, by default a drawn one."""
    n = t.shape[0]
    i, j = cell or (rng.randrange(n), rng.randrange(n))
    out = np.array(t)
    if kind == "entry":
        out[i, j] = (t[i, j] + rng.randrange(1, n)) % n
    else:
        k = rng.choice([r for r in range(n) if r != i])
        out[[i, k], j] = out[[k, i], j]
    return out


def mid_size_pairs(seed):
    """(u, o) pairs at n = 31 and 100: valid, then seeded corruptions of
    either table, some pinned to the last row or the last column."""
    rng = random.Random(seed)
    pairs = []
    for b in (ALEX31, HOL5):
        n = b.n
        pairs.append((b.under, b.over))
        for cell in (None, None, (n - 1, rng.randrange(n)), (rng.randrange(n), n - 1), (n - 1, n - 1)):
            for kind in ("entry", "swap"):
                side = rng.randrange(2)
                tables = [b.under, b.over]
                tables[side] = corrupted(rng, tables[side], kind, cell)
                pairs.append(tuple(tables))
    return pairs


def layouts(*tables):
    """The tables as given (read-only or not), as writable F-ordered copies,
    and as read-only F-ordered copies."""
    fortran = [np.asfortranarray(t) for t in tables]
    frozen = [np.asfortranarray(t) for t in tables]
    for t in frozen:
        t.setflags(write=False)
    return [tables, fortran, frozen]


def assert_same_slabs(got, want):
    """The same rows, each with the same boolean mask or masks."""
    got, want = list(got), list(want)
    assert [a for a, _ in got] == [a for a, _ in want]
    for (_, g), (_, w) in zip(got, want):
        g = np.asarray(g)
        assert g.dtype == bool and np.array_equal(g, w)


def exchange_violation_of(slabs):
    """First (code, x, y, z) of the oracle's slabs, by (x, y, z, code)."""
    for x, bads in slabs:
        hits = [(*np.argwhere(bad)[0].tolist(), code) for code, bad in enumerate(bads) if bad.any()]
        if hits:
            y, z, code = min(hits)
            return code, x, y, z
    return None


class TestFlatOffsetsAtMidSize:
    """The flat-offset sweeps against the 2-D-index oracles at n = 31 and
    100, where a wrong row offset or memory-order slip first shows."""

    def test_r2_slabs_and_witness(self):
        tables = [t for pair in mid_size_pairs(20) for t in pair]
        tables += [HOL5.under.T, dihedral_quandle(101).table]
        seen = 0
        for t in tables:
            want = list(r2_slabs_2d(t))
            first = next(((a, *np.argwhere(bad)[0].tolist()) for a, bad in want if bad.any()), None)
            for laid in layouts(t):
                assert_same_slabs(K.r2_slabs(*laid), want)
                assert K.r2_violation(*laid) == first
            seen += first is not None
        assert 0 < seen < len(tables)

    def test_exchange_slabs_and_witness(self):
        pairs = mid_size_pairs(21) + [(HOL5.under.T, HOL5.over), (HOL5.under, HOL5.over.T)]
        seen = 0
        for u, o in pairs:
            want = list(exchange_slabs_2d(u, o))
            for laid in layouts(u, o):
                assert_same_slabs(K.exchange_slabs(*laid), want)
                assert K.exchange_violation(*laid) == exchange_violation_of(want)
            seen += exchange_violation_of(want) is not None
        assert 0 < seen < len(pairs)

    def test_ybe_witness(self):
        # the pair map needs bijective over columns, so entry corruptions
        # are left to the under table
        pairs = [(u, o) for u, o in mid_size_pairs(22) if not _bad_columns(o).any()]
        witnesses = []
        for u, o in pairs:
            oinv = _invert_columns(o)
            want = ybe_violation_2d(u, o, oinv)
            for laid in layouts(u, o, oinv):
                got = K.ybe_violation(*laid)
                assert got == want
                assert got is None or all(type(v) is int for v in got)
            witnesses.append(want)
        assert None in witnesses and any(w is not None and w[0] == 0 for w in witnesses)
        assert any(w is not None and w[0] > 0 for w in witnesses)



# ---------------------------------------------------------------------------
# the exchange check by distinct quadruples of column maps, against the row
# sweep it hands failures to

QUAD_BASES = {
    "hol3": holomorph_biquandle(dihedral_quandle(3)),   # n = 18, columns repeat
    "hol5": HOL5,
    "alex31": ALEX31,                                   # one distinct over column
    "wada-s3": wada_biquandle(symmetric_group(3)),
    "wada-z4": WADA4,
}


@st.composite
def swapped_tables(draw):
    """A valid biquandle's (u, o) with up to three seeded column swaps (the
    columns stay bijective), each in either table, C- or F-ordered."""
    b = QUAD_BASES[draw(st.sampled_from(sorted(QUAD_BASES)))]
    tables = [np.array(b.under), np.array(b.over)]
    for _ in range(draw(st.integers(0, 3))):
        t = tables[draw(st.integers(0, 1))]
        j = draw(st.integers(0, b.n - 1))
        i1, i2 = draw(st.lists(st.integers(0, b.n - 1), min_size=2, max_size=2, unique=True))
        t[[i1, i2], j] = t[[i2, i1], j]
    if draw(st.booleans()):
        tables = [np.asfortranarray(t) for t in tables]
    return tables


class TestExchangeByQuadruples:
    @settings(max_examples=80, deadline=None)
    @given(swapped_tables())
    def test_first_witness_is_the_row_sweeps(self, tables):
        assert K.exchange_violation(*tables) == exchange_violation_of(K.exchange_slabs(*tables))

    def test_valid_tables_never_reach_the_row_sweep(self, monkeypatch):
        def sweep(u, o):
            raise AssertionError("a valid table reached the row sweep")

        monkeypatch.setattr(K, "_sweep_violation", sweep)
        for b in QUAD_BASES.values():
            assert K.exchange_violation(b.under, b.over) is None

    def test_hol7_checks_each_distinct_quadruple_once(self, monkeypatch):
        # 42 distinct columns per table; 1,764 quadruples for (3c), against
        # 86,436 pairs (y, z).  Fewer would skip a quadruple, more would
        # check one twice.  (3a) and (3b) compare no quadruples: they are
        # decided on the associated quandle.
        hol7 = holomorph_biquandle(dihedral_quandle(7))
        assert [len(K._columns(t)[1]) for t in (hol7.under, hol7.over)] == [42, 42]
        checked = []
        compare = K._composites_differ

        def counted(maps, quads):
            checked.append(len(quads[0]))
            return compare(maps, quads)

        monkeypatch.setattr(K, "_composites_differ", counted)
        assert K.exchange_violation(hol7.under, hol7.over) is None
        assert sum(checked) == 1_764

    def test_failure_at_the_last_x_only(self):
        # The compare must cover every x.  With bijective columns both
        # composites are permutations, which cannot differ at the last x
        # alone; the kernel does not need bijective columns, so the input
        # here is kernel-only, and check_biquandle stops at its columns.
        # R_3 plus two points 3, 4 that act trivially, over trivial, is a
        # biquandle.  Setting 4 u 0 = 3 changes U_0 at x = 4 only, and the
        # column 4 u 0 picks, U_3, equals U_4; so (3a) fails at x = 4 alone,
        # and a compare that left out the last x would pass the table.
        a = np.arange(5)
        u = np.broadcast_to(a[:, None], (5, 5)).copy()
        o = u.copy()
        u[:3, :3] = (2 * a[None, :3] - a[:3, None]) % 3
        assert check_biquandle(u, o).passed
        u[4, 0] = 3
        assert {name for name, _ in check_biquandle(u, o).violations} == {"b2-under-columns"}
        w = K.exchange_violation(u, o)
        assert w is not None and w[1] == 4 and w == exchange_oracle(u, o)

    def test_hol11_builds_and_validates(self):
        hol = holomorph_biquandle(dihedral_quandle(11))
        assert hol.n == 1210
        assert check_biquandle(hol.under, hol.over).passed


# ---------------------------------------------------------------------------
# check_ybe answers by the exchange identities; the braid row sweep runs only
# on a failure, for the witness


def column_bijective_tables(n):
    """Every n x n table whose columns are permutations, stacked."""
    perms = list(itertools.permutations(range(n)))
    cols = np.array(list(itertools.product(perms, repeat=n)), dtype=np.int8)
    return cols.transpose(0, 2, 1)  # table[k][x, y] = cols[k][y][x]


def exchange_and_braid_verdicts(tables):
    """For every pair (u, o) of the stacked tables, u major: whether each
    exchange identity holds, as three rows, and whether the braid relation
    holds.

    Each product is one gather over all pairs and triples at once, the
    braid composites written out as in ybe_oracle."""
    count, n = tables.shape[:2]
    u = np.repeat(tables, count, axis=0)
    o = np.tile(tables, (count, 1, 1))
    oinv = np.argsort(o, axis=1).astype(np.int8)   # o[k, oinv[k, v, y], y] = v
    k = np.arange(len(u))[:, None, None, None]
    x, y, z = np.ix_(range(n), range(n), range(n))

    def U(a, b):
        return u[k, a, b]

    def O(a, b):
        return o[k, a, b]

    def r(a, b):
        w = oinv[k, b, a]
        return w, U(a, w)

    identities = (
        U(U(x, y), U(z, y)) == U(U(x, z), O(y, z)),
        O(U(x, y), U(z, y)) == U(O(x, z), O(y, z)),
        O(O(x, y), O(z, y)) == O(O(x, z), U(y, z)),
    )
    p, q = r(x, y)                  # left composite on (a, b, c) = (x, y, z)
    w, l3 = r(q, z)
    l1, l2 = r(p, w)
    s, t = r(y, z)                  # right composite
    p2, q2 = r(x, s)
    q3, r3 = r(q2, t)
    braid = (l1 == p2) & (l2 == q3) & (l3 == r3)
    holds = [m.reshape(len(u), -1).all(axis=1) for m in (*identities, braid)]
    return np.array(holds[:3]), holds[3]


class TestYbeByExchange:
    @pytest.mark.parametrize("n, holding", [(2, 4), (3, 66)])
    def test_exchange_holds_iff_braid_holds_exhaustively(self, n, holding):
        # all 16 pairs at n = 2 and all 46,656 at n = 3
        tables = column_bijective_tables(n)
        identities, braid = exchange_and_braid_verdicts(tables)
        exchange = identities.all(axis=0)
        assert len(exchange) == len(tables) ** 2
        assert np.array_equal(exchange, braid)
        assert int(exchange.sum()) == holding
        # check_ybe on every holding pair, on the pairs that break only one
        # identity (a few per identity), and on a seeded sample of the rest
        rng = random.Random(n)
        count = len(tables)
        picks = np.flatnonzero(exchange).tolist()
        for code in range(3):
            alone = np.flatnonzero((identities.sum(axis=0) == 2) & ~identities[code]).tolist()
            picks += rng.sample(alone, min(20, len(alone)))
        failing = np.flatnonzero(~exchange).tolist()
        picks += rng.sample(failing, min(200, len(failing)))
        for i in picks:
            assert check_ybe((tables[i // count], tables[i % count])) is bool(exchange[i])

    @settings(max_examples=80, deadline=None)
    @given(swapped_tables())
    def test_witness_is_the_braid_sweeps(self, tables):
        u, o = tables
        got = ybe_witness(u, o)
        assert got == ybe_violation_2d(u, o, _invert_columns(o))
        assert got is None or all(type(v) is int for v in got)

    def test_valid_tables_never_reach_the_braid_sweep(self, monkeypatch):
        calls = []
        sweep = K.ybe_violation

        def counted(*args):
            calls.append(args[0].shape[0])
            return sweep(*args)

        monkeypatch.setattr(K, "ybe_violation", counted)
        for b in QUAD_BASES.values():
            assert check_ybe(b) and check_ybe((b.under, b.over))
        assert calls == []
        over = corrupted(random.Random(24), HOL5.over, "swap")
        assert not check_ybe((HOL5.under, over))
        assert calls == [HOL5.n]


# ---------------------------------------------------------------------------
# R2 decided by the slices of a generating set; the triple sweep runs only on
# a failure, for the witness


def r2_verdicts(tables):
    """Whether (a*b)*c == (a*c)*(b*c) holds, per table of the stack, each
    product one gather over all tables and triples at once."""
    k = np.arange(len(tables))[:, None, None, None]
    n = tables.shape[1]
    a, b, c = np.ix_(range(n), range(n), range(n))
    lhs = tables[k, tables[k, a, b], c]
    rhs = tables[k, tables[k, a, c], tables[k, b, c]]
    return (lhs == rhs).reshape(len(tables), -1).all(axis=1)


def idempotent_column_tables(n):
    """Every n x n table whose column b is a permutation fixing b, stacked."""
    cols = [[p for p in itertools.permutations(range(n)) if p[b] == b] for b in range(n)]
    return np.array(list(itertools.product(*cols)), dtype=np.int64).transpose(0, 2, 1)


def sweep_report(t):
    """check_quandle's default report by the triple sweep alone: the first
    q1 and r1 witnesses, then r2_violation's."""
    t = np.asarray(t)
    n = len(t)
    bad = [("q1", (a,)) for a in range(n) if t[a, a] != a][:1]
    bad += [("r1", (b,)) for b in range(n) if sorted(t[:, b].tolist()) != list(range(n))][:1]
    w = K.r2_violation(t)
    return bad + ([("r2", w)] if w is not None else [])


R2_BASES = {
    "r5": R5,
    "r7": dihedral_quandle(7),
    "r31": dihedral_quandle(31),
    "trivial6": trivial_quandle(6),
    "r3+r5": union_quandle(dihedral_quandle(3), R5),
    "assoc-hol3": associated_quandle(holomorph_biquandle(dihedral_quandle(3))),  # n = 18
    "assoc-hol5": associated_quandle(HOL5),                                      # n = 100
}


@st.composite
def swapped_quandle_tables(draw):
    """A valid quandle's table with up to three seeded column swaps (the
    columns stay bijective), C- or F-ordered."""
    t = np.array(R2_BASES[draw(st.sampled_from(sorted(R2_BASES)))].table)
    n = len(t)
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, n - 1))
        i1, i2 = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        t[[i1, i2], j] = t[[i2, i1], j]
    return np.asfortranarray(t) if draw(st.booleans()) else t


def counting(monkeypatch, name, calls):
    """Replace K.name by a wrapper that appends name to calls."""
    fn = getattr(K, name)

    def counted(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(K, name, counted)


class TestR2BySlices:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_verdict_is_the_sweeps_exhaustively(self, n):
        # every column-permutation table up to n = 3, and the 1,296 with
        # idempotent columns at n = 4
        tables = idempotent_column_tables(n) if n == 4 else column_bijective_tables(n).astype(np.int64)
        want = r2_verdicts(tables)
        assert len(tables) == {1: 1, 2: 4, 3: 216, 4: 1296}[n]
        for t, holds in zip(tables, want.tolist()):
            assert K.r2_holds(t) is holds
            assert (K.r2_violation(t) is None) is holds
        assert want.any() and (n == 1 or not want.all())
        if n == 4:
            assert int(want.sum()) == len(enumerate_quandles(4))  # 36 quandles

    @settings(max_examples=80, deadline=None)
    @given(swapped_quandle_tables())
    def test_report_is_the_sweeps(self, t):
        got = check_quandle(t)
        assert list(got.violations) == sweep_report(t)
        assert all(type(v) is int for _, w in got.violations for v in w)

    def test_valid_tables_never_reach_the_sweep(self, monkeypatch):
        calls, slices = [], []
        for name in ("r2_slabs", "r2_violation"):
            counting(monkeypatch, name, calls)
        check_slices = K._r2_slices_hold

        def counted(t, cs):
            slices.extend(cs)
            return check_slices(t, cs)

        monkeypatch.setattr(K, "_r2_slices_hold", counted)
        for q in R2_BASES.values():
            assert check_quandle(q.table).passed
        assert calls == []
        # R_301's columns are all distinct, and two of them generate
        for q, most in ((dihedral_quandle(301), 2), (trivial_quandle(1100), 1)):
            slices.clear()
            assert check_quandle(q.table).passed
            assert 0 < len(slices) <= most
        assert calls == []
        t = np.array(R5.table)
        t[[0, 1], 2] = t[[1, 0], 2]
        assert not check_quandle(t).passed
        assert calls == ["r2_violation", "r2_slabs"]

    def test_large_constructions_never_sweep(self, monkeypatch):
        # trivial_quandle(1100) took 5-12 s by the n^3 sweep
        calls = []
        for name in ("r2_slabs", "r2_violation"):
            counting(monkeypatch, name, calls)
        assert trivial_quandle(1100).n == 1100
        assert associated_quandle(holomorph_biquandle(dihedral_quandle(7))).n == 294
        assert calls == []


class TestExchangeVerdictFirst:
    def test_check_ybe_asks_only_the_verdict(self, monkeypatch):
        rng = random.Random(25)
        pairs = []
        for b in (HOL5, ALEX31, QUAD_BASES["hol3"]):
            for side in (0, 1):
                tables = [b.under, b.over]
                tables[side] = corrupted(rng, tables[side], "swap")
                pairs.append(tables)
        want = [ybe_violation_2d(u, o, _invert_columns(o)) for u, o in pairs]
        assert any(w is not None for w in want)
        calls = []
        counting(monkeypatch, "_sweep_violation", calls)
        assert [ybe_witness(u, o) for u, o in pairs] == want
        assert [check_ybe((u, o)) for u, o in pairs] == [w is None for w in want]
        assert calls == []
        # check_biquandle still runs the sweep for its witness
        failing = [p for p, w in zip(pairs, want) if w is not None]
        for u, o in failing:
            assert not check_biquandle(u, o).passed
        assert len(calls) == len(failing)


# ---------------------------------------------------------------------------
# exchange_holds decides through the associated quandle: (3c) on the over
# columns, then R2 and the over columns as automorphisms on a generating set


def sweep_holds(u, o):
    return K._sweep_violation(u, o) is None


# _BLOCK = 1 makes every gather one row and every generating step one
# element, as at n^2 > _BLOCK, so small tables take the large-table path
BLOCKS = [K._BLOCK, 1]


class TestExchangeThroughQuandle:
    @pytest.mark.parametrize("n, holding", [(2, 4), (3, 66)])
    def test_verdict_is_the_sweeps_exhaustively(self, n, holding):
        # all 16 column-bijective pairs at n = 2 and all 46,656 at n = 3
        tables = column_bijective_tables(n).astype(np.int64)
        got = [K.exchange_holds(u, o) for u in tables for o in tables]
        assert got == [sweep_holds(u, o) for u in tables for o in tables]
        assert got.count(True) == holding

    @pytest.mark.parametrize("block", BLOCKS)
    def test_structure_biquandles_valid_and_swapped(self, monkeypatch, block):
        monkeypatch.setattr(K, "_BLOCK", block)
        rng = random.Random(26)
        structures = enumerate_trivial_structures(4)
        assert len(structures) == 168
        failing = 0
        for s in structures:
            b = biquandle_from_structure(s)
            assert K.exchange_holds(b.under, b.over) is True
            tables = [b.under, b.over]
            side = rng.randrange(2)
            tables[side] = corrupted(rng, tables[side], "swap")
            holds = sweep_holds(*tables)
            assert K.exchange_holds(*tables) is holds
            failing += not holds
        assert failing > 0

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_seeded_random_pairs(self, monkeypatch, n, block):
        # columns drawn from all permutations, from two of them (so that
        # columns repeat), and any in-range entries (the sweep's fallback)
        monkeypatch.setattr(K, "_BLOCK", block)
        rng = np.random.default_rng(n)
        for _ in range(150):
            u, o = (np.argsort(rng.random((n, n)), axis=0) for _ in range(2))
            kind = int(rng.integers(3))
            if kind == 1:
                u, o = u[:, rng.integers(2, size=n)], o[:, rng.integers(2, size=n)]
            elif kind == 2:
                u = rng.integers(n, size=(n, n))
            assert K.exchange_holds(u, o) is sweep_holds(u, o)

    @settings(max_examples=80, deadline=None)
    @given(swapped_tables(), st.sampled_from(BLOCKS))
    def test_verdict_on_swapped_tables(self, tables, block):
        with mock.patch.object(K, "_BLOCK", block):
            assert K.exchange_holds(*tables) is sweep_holds(*tables)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_automorphisms_are_checked_at_every_seed(self, monkeypatch, block):
        # Q's columns at 0, 2 and 4 coincide, and so do those at 1 and 3.
        # The over columns map seed 4 to 1, whose column is not column 0's,
        # so the automorphism check fails at 4 alone: a check at one element
        # per repeated column would pass the pair.
        monkeypatch.setattr(K, "_BLOCK", block)
        q = np.array([[0, 4, 0, 4, 0], [3, 1, 3, 1, 3], [2, 2, 2, 2, 2], [1, 3, 1, 3, 1], [4, 0, 4, 0, 4]])
        o = np.repeat(np.array([[3], [0], [2], [4], [1]]), 5, axis=1)
        u = o[q, np.arange(5)]                  # x u y = O_y(x * y)
        assert check_quandle(q).passed
        assert K.exchange_holds(u, o) is sweep_holds(u, o) is False

    @pytest.mark.parametrize("block", BLOCKS)
    def test_generators_generate(self, monkeypatch, block):
        monkeypatch.setattr(K, "_BLOCK", block)
        tables = [np.array(q.table) for n in (3, 4, 5) for q in enumerate_quandles(n)]
        tables += list(column_bijective_tables(3).astype(np.int64)[::7])
        tables += [np.array(trivial_quandle(7).table), np.array(union_quandle(R5, trivial_quandle(3)).table)]
        for t in tables:
            firsts, seeds = (a.tolist() for a in K._generators(t))
            assert len(set(seeds)) == len(seeds) and set(firsts) <= set(seeds)
            assert {tuple(t[:, g]) for g in seeds} == {tuple(t[:, g]) for g in firsts}
            reached, new = set(seeds), set(seeds)
            while new:
                new = {int(t[a, b]) for a in reached for b in reached} - reached
                reached |= new
            assert reached == set(range(len(t)))

    def test_alexander_211_compares_one_quadruple(self, monkeypatch):
        # one distinct over column, so (3c) has one quadruple
        b = alexander_biquandle(211, 3, 2)
        checked = []
        compare = K._composites_differ

        def counted(maps, quads):
            checked.append(len(quads[0]))
            return compare(maps, quads)

        def sweep(u, o):
            raise AssertionError("a valid table reached the row sweep")

        monkeypatch.setattr(K, "_composites_differ", counted)
        monkeypatch.setattr(K, "_sweep_violation", sweep)
        assert K.exchange_holds(b.under, b.over) is True
        assert checked == [1]
        assert check_biquandle(b.under, b.over).passed and check_ybe(b)
        assert checked == [1, 1, 1]

    def test_under_columns_not_bijective_fall_back(self, monkeypatch):
        # x u y = y, x o y = x: the identities hold, R2 of Q holds, and Q's
        # columns are constant, so only the sweep can answer
        n = 5
        u = np.broadcast_to(np.arange(n)[None, :], (n, n)).copy()
        o = np.ascontiguousarray(u.T)
        calls = []
        counting(monkeypatch, "_sweep_violation", calls)
        assert K.exchange_holds(u, o) is True
        assert calls == ["_sweep_violation"]
        u[0, 0] = 1
        assert K.exchange_holds(u, o) is sweep_holds(u, o)
