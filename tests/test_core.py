import random
import tracemalloc

import numpy as np
import pytest

from biquandles import core
from biquandles.core import (
    FiniteBiquandle,
    FiniteQuandle,
    Permutation,
    PermutationGroup,
    associated_quandle,
    biquandle_of_quandle,
    check_biquandle,
    check_quandle,
    check_ybe,
    inner_group,
    is_connected,
    is_faithful,
    is_involutory_biquandle,
    is_involutory_quandle,
    orbits,
    product_table,
    yang_baxter_map,
    ybe_witness,
)
from biquandles.errors import AxiomError, DomainError, MalformedInput
from biquandles.groups import FiniteGroup, cyclic_group, symmetric_group
from biquandles.group_constructions import (
    alexander_biquandle,
    conj_quandle,
    dihedral_quandle,
    trivial_quandle,
    wada_biquandle,
)
from helpers import cycle, mulclose

R3_TABLE = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def wada_tables(n):
    a = np.arange(n)
    return (-a[:, None] + 0 * a[None, :]) % n, (a[:, None] - 2 * a[None, :]) % n


def orbits_by_search(q):
    """Orbit partition by breadth-first search along S_x and S_x^{-1}."""
    seen = [False] * q.n
    out = []
    for s in range(q.n):
        if seen[s]:
            continue
        orb = [s]
        seen[s] = True
        stack = [s]
        while stack:
            a = stack.pop()
            for x in range(q.n):
                for b in (q.op(a, x), q.op_inv(a, x)):
                    if not seen[b]:
                        seen[b] = True
                        orb.append(b)
                        stack.append(b)
        out.append(sorted(orb))
    return out


class TestCheckQuandle:
    def test_dihedral_table_passes(self):
        assert check_quandle(R3_TABLE).passed

    def test_trivial_passes(self):
        assert check_quandle([[0, 0], [1, 1]]).passed

    def test_constant_columns_fail_r1(self):
        rep = check_quandle([[0, 1], [0, 1]])
        assert not rep.passed
        assert rep.violations[0] == ("r1", (0,))

    def test_broken_diagonal_reports_q1(self):
        rep = check_quandle([[1, 0], [0, 1]])
        assert ("q1", (0,)) in rep.violations

    def test_entry_range(self):
        rep = check_quandle([[0, 5], [1, 1]])
        assert rep.violations[0][0] == "entry-range"

    def test_r2_violation_witness(self):
        # columns are permutations and diagonal is fixed, but not
        # self-distributive: x*y = x + (y-x choose sign) hand-built
        t = [[0, 2, 1, 3], [3, 1, 0, 2], [1, 3, 2, 0], [2, 0, 3, 1]]
        rep = check_quandle(t)
        if not rep.passed:
            assert any(axiom == "r2" for axiom, _ in rep.violations)

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            check_quandle([[0, 1]])
        with pytest.raises(MalformedInput):
            check_quandle([])

    def test_all_witnesses_mode(self):
        rep = check_quandle([[0, 0], [0, 1]], all_witnesses=True)
        assert len(rep.violations) >= 1

    @pytest.mark.parametrize(
        "table",
        [
            [[0.9, 0], [1, 1]],
            [["0", "0"], ["1", "1"]],
            [[10**23, 0], [1, 1]],
            [[True, False], [False, True]],
            [[0, 0], [True, 1]],
            [np.array([0, 0]), np.array([True, True])],
            np.array([[0, 0], [1, 1]], dtype=np.float64),
        ],
        ids=["float", "string", "overflow", "bool", "mixed-bool", "mixed-bool-rows", "float-array"],
    )
    def test_non_integer_entries_are_malformed(self, table):
        # neither truncated, parsed nor overflowed into a traceback
        with pytest.raises(MalformedInput):
            check_quandle(table)
        with pytest.raises(MalformedInput):
            FiniteQuandle(table)

    def test_integer_arrays_of_any_width_are_accepted(self):
        for dtype in (np.int8, np.uint16, np.int32, np.int64):
            t = np.array(R3_TABLE, dtype=dtype)
            assert check_quandle(t).passed
            q = FiniteQuandle(t)
            assert q.table.dtype == np.int64
            assert t.flags.writeable and not q.table.flags.writeable


class TestCheckBiquandle:
    def test_embedded_quandle(self):
        b = biquandle_of_quandle(FiniteQuandle(R3_TABLE))
        assert check_biquandle(b.under, b.over).passed

    def test_wada_z3(self):
        under, over = wada_tables(3)
        assert check_biquandle(under, over).passed

    def test_constant_right_fails_columns(self):
        t = [[0, 1], [0, 1]]
        rep = check_biquandle(t, t)
        assert any(a.startswith("b2") for a, _ in rep.violations)

    def test_size_mismatch(self):
        with pytest.raises(MalformedInput):
            check_biquandle([[0]], [[0, 1], [1, 0]])

    def test_all_witnesses_lists_every_out_of_range_entry(self):
        under = [[0, 5], [1, 1]]
        over = [[0, 0], [-1, 1]]
        assert check_biquandle(under, over).violations == (("entry-range", (0, 1)),)
        rep = check_biquandle(under, over, all_witnesses=True)
        assert rep.violations == (("entry-range", (0, 1)), ("entry-range", (1, 0)))

    def test_diagonal_axiom_violation(self):
        a = np.arange(3)
        under = (a[:, None] + a[None, :]) % 3
        over = np.broadcast_to(a[:, None], (3, 3)).copy()
        rep = check_biquandle(under, over)
        assert ("b1", (1,)) in rep.violations
        assert any(x.startswith("b3") for x, _ in rep.violations)


class TestInnerGroup:
    def test_r3_order_six(self):
        assert inner_group(FiniteQuandle(R3_TABLE)).order == 6

    def test_trivial_quandle_trivial_group(self):
        assert inner_group(trivial_quandle(4)).order == 1

    def test_r4_order_four(self):
        assert inner_group(dihedral_quandle(4)).order == 4

    @pytest.mark.parametrize("q", [dihedral_quandle(5), conj_quandle(symmetric_group(3))])
    def test_conjugation_identity(self, q):
        # S_{x*y} == S_y S_x S_y^{-1}
        for x in range(q.n):
            for y in range(q.n):
                sy = q.sx(y)
                assert q.sx(q.op(x, y)) == sy * q.sx(x) * sy.inverse()


class TestOrbitsAndPredicates:
    def test_r5_connected(self):
        q = dihedral_quandle(5)
        assert orbits(q) == [[0, 1, 2, 3, 4]]
        assert is_connected(q)
        assert is_faithful(q)
        assert is_involutory_quandle(q)

    def test_trivial_orbits(self):
        assert orbits(trivial_quandle(3)) == [[0], [1], [2]]

    def test_conj_s3_orbits_are_conjugacy_classes(self):
        q = conj_quandle(symmetric_group(3))
        assert sorted(len(o) for o in orbits(q)) == [1, 2, 3]
        # brute-forced: distinct centralizers make x -> S_x injective here
        assert is_faithful(q)

    def test_t2_not_faithful(self):
        q = trivial_quandle(2)
        assert not is_faithful(q)
        assert is_involutory_quandle(q)

    def test_orbits_match_breadth_first_search(self):
        from biquandles.enumeration import enumerate_quandles

        for q in [*enumerate_quandles(4), *(dihedral_quandle(n) for n in range(3, 12))]:
            assert orbits(q) == orbits_by_search(q)

    def test_orbits_stable_under_inner_generators(self):
        q = conj_quandle(symmetric_group(3))
        for orb in orbits(q):
            s = set(orb)
            for x in range(q.n):
                assert {q.op(a, x) for a in s} == s


class TestInvolutoryBiquandle:
    def test_embedded_involutory_quandle(self):
        assert is_involutory_biquandle(biquandle_of_quandle(FiniteQuandle(R3_TABLE)))
        assert is_involutory_biquandle(biquandle_of_quandle(trivial_quandle(4)))

    def test_wada_not_involutory(self):
        assert not is_involutory_biquandle(FiniteBiquandle(*wada_tables(3)))


class TestFunctors:
    @pytest.mark.parametrize(
        "q",
        [
            trivial_quandle(1),
            FiniteQuandle(R3_TABLE),
            dihedral_quandle(5),
            conj_quandle(cyclic_group(4)),
            conj_quandle(symmetric_group(3)),
        ],
    )
    def test_associated_of_embedded_is_identity(self, q):
        assert associated_quandle(biquandle_of_quandle(q)) == q

    def test_embedded_conj_of_abelian_is_trivial(self):
        assert conj_quandle(cyclic_group(4)) == trivial_quandle(4)

    def test_associated_of_wada_is_core(self):
        # beta_y^{-1} restores y x^{-1} y from the twisted tables
        assert associated_quandle(FiniteBiquandle(*wada_tables(5))) == dihedral_quandle(5)

    def test_associated_alexander(self):
        b = alexander_biquandle(5, 3, 2)
        expect = (4 * np.arange(5)[:, None] - 3 * np.arange(5)[None, :]) % 5
        assert np.array_equal(associated_quandle(b).table, expect)


class TestYangBaxter:
    def test_embedded_trivial(self):
        b = biquandle_of_quandle(trivial_quandle(3))
        first, second = yang_baxter_map(b)
        # with trivial over, r(u, v) = (v, u*v) = (v, u)
        assert np.array_equal(first, np.broadcast_to(np.arange(3)[None, :], (3, 3)))
        assert check_ybe(b)

    def test_embedded_quandle_formula(self):
        q = FiniteQuandle(R3_TABLE)
        first, second = yang_baxter_map(biquandle_of_quandle(q))
        # trivial over: r(u, v) = (v, u*v)
        for u in range(3):
            for v in range(3):
                assert (first[u, v], second[u, v]) == (v, q.op(u, v))

    def test_wada_holds(self):
        assert check_ybe(FiniteBiquandle(*wada_tables(3)))

    def test_pair_map_bijective(self):
        b = FiniteBiquandle(*wada_tables(5))
        first, second = yang_baxter_map(b)
        codes = (first * b.n + second).ravel()
        assert sorted(codes.tolist()) == list(range(b.n * b.n))

    def test_exchange_failure_breaks_braid(self):
        a = np.arange(3)
        under = (a[:, None] + a[None, :]) % 3
        over = np.broadcast_to(a[:, None], (3, 3)).copy()
        assert ybe_witness(under, over) is not None

    def test_ybe_needs_permutation_columns(self):
        with pytest.raises(DomainError):
            ybe_witness([[0, 0], [1, 1]], [[0, 0], [0, 0]])

    @pytest.mark.parametrize(
        "wrap",
        [lambda t: (t,), lambda t: (t, t, t), lambda t: {"under": t}],
        ids=["one-table", "three-tables", "dict"],
    )
    def test_check_ybe_needs_a_biquandle_or_a_pair(self, wrap):
        under, _ = wada_tables(3)
        with pytest.raises(MalformedInput, match=r"FiniteBiquandle or an \(under, over\) pair"):
            check_ybe(wrap(under))

    def test_check_ybe_checks_a_rebound_biquandle(self):
        # a biquandle's tables cannot be rebound, so check_ybe trusts it;
        # the raw pairs a rebinding would have held are checked
        b = alexander_biquandle(7, 3, 2)
        assert check_ybe(b) is True
        swapped = np.array(b.over)
        swapped[[0, 1]] = swapped[[1, 0]]
        with pytest.raises(AttributeError):
            b.over = swapped
        assert check_ybe((b.under, swapped)) is False
        assert check_ybe(b) is True
        zero = np.zeros((7, 7), dtype=np.int64)
        with pytest.raises(AttributeError):
            b.under = zero
        with pytest.raises(DomainError, match="pair map undefined"):
            check_ybe((zero, swapped))
        assert b == alexander_biquandle(7, 3, 2)

    @pytest.mark.parametrize(
        "b",
        [
            FiniteBiquandle(*wada_tables(5)),
            alexander_biquandle(7, 2, 3),
            biquandle_of_quandle(conj_quandle(symmetric_group(3))),
        ],
    )
    def test_braid_relation_via_independent_composition(self, b):
        # oracle: compose the pair maps explicitly from the r tables
        first, second = yang_baxter_map(b)
        r = {(u, v): (int(first[u, v]), int(second[u, v])) for u in range(b.n) for v in range(b.n)}
        assert sorted(r.values()) == sorted(r.keys())  # bijection of pairs

        def r12(t):
            a, bb = r[(t[0], t[1])]
            return (a, bb, t[2])

        def r23(t):
            a, bb = r[(t[1], t[2])]
            return (t[0], a, bb)

        for u in range(b.n):
            for v in range(b.n):
                for w in range(b.n):
                    t = (u, v, w)
                    assert r12(r23(r12(t))) == r23(r12(r23(t)))


class TestConstructionValidation:
    def test_invalid_table_raises(self):
        with pytest.raises(AxiomError):
            FiniteQuandle([[0, 1], [0, 1]])

    def test_invalid_biquandle_raises(self):
        with pytest.raises(AxiomError):
            FiniteBiquandle([[0, 1], [0, 1]], [[0, 1], [0, 1]])

    def test_tables_read_only(self):
        q = FiniteQuandle(R3_TABLE)
        with pytest.raises(ValueError):
            q.table[0, 0] = 1

    def test_each_table_is_coerced_once(self, monkeypatch):
        # the constructors check the tables they coerced, not a second copy
        calls = []
        coerce = core.as_table

        def counted(obj, what="table"):
            calls.append(what)
            return coerce(obj, what)

        monkeypatch.setattr(core, "as_table", counted)
        b = wada_biquandle(cyclic_group(4))
        for build, tables, want in (
            (FiniteQuandle, [R3_TABLE], ["table"]),
            (FiniteBiquandle, [b.under, b.over], ["under", "over"]),
        ):
            calls.clear()
            build(*tables)
            assert calls == want
        bad = np.array(R3_TABLE)
        bad[0, 1] = 0
        for check, build, tables, want in (
            (check_quandle, FiniteQuandle, [bad], ["table"]),
            (check_biquandle, FiniteBiquandle, [bad, bad], ["under", "over"]),
        ):
            calls.clear()
            report = check(*tables)
            with pytest.raises(AxiomError) as err:
                build(*tables)
            assert err.value.report == report and calls == want * 2


class TestJson:
    def test_quandle_roundtrip(self):
        q = dihedral_quandle(7)
        assert FiniteQuandle.from_json(q.to_json()) == q

    def test_biquandle_roundtrip(self):
        b = alexander_biquandle(5, 3, 2)
        assert FiniteBiquandle.from_json(b.to_json()) == b

    def test_bad_json(self):
        with pytest.raises(MalformedInput):
            FiniteQuandle.from_json("nope")
        with pytest.raises(MalformedInput):
            FiniteQuandle.from_dict({"n": 3})
        with pytest.raises(MalformedInput):
            FiniteQuandle.from_dict({"n": 2, "table": R3_TABLE})


class TestPermutations:
    def test_compose_and_invert(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(1, 8)
            p = Permutation(tuple(rng.sample(range(n), n)))
            q = Permutation(tuple(rng.sample(range(n), n)))
            assert (p * q)(0) == p(q(0))
            assert (p * p.inverse()).is_identity()

    def test_compose_rejects_a_degree_mismatch(self):
        p, q = Permutation((1, 0, 2)), Permutation((0, 1))
        for a, b in ((p, q), (q, p)):
            with pytest.raises(MalformedInput, match="permutation degree mismatch"):
                a * b

    def test_cycle_notation(self):
        assert Permutation((1, 0, 2)).cycle_notation() == "(0 1)"
        assert Permutation((0, 1)).cycle_notation() == "()"
        assert Permutation((1, 2, 0)).cycle_type() == (3,)

    def test_group_generate(self):
        g = PermutationGroup.generate(3, [Permutation((1, 0, 2)), Permutation((0, 2, 1))])
        assert g.order == 6

    def test_from_elements_rejects_non_group(self):
        with pytest.raises(MalformedInput):
            PermutationGroup.from_elements(3, [Permutation((1, 0, 2))])
        # closed under composition only once the missing 3-cycle is added
        s3 = PermutationGroup.generate(3, [Permutation((1, 0, 2)), Permutation((1, 2, 0))])
        with pytest.raises(MalformedInput):
            PermutationGroup.from_elements(3, s3.elements - {Permutation((2, 0, 1))})

    def test_from_elements_picks_the_generators_of_the_mulclose_greedy(self):
        # reference: in sorted order, each element outside the closure of
        # those picked so far, with the closure recomputed by mulclose
        def greedy(degree, els):
            gens, span = [], {Permutation.identity(degree)}
            for p in sorted(els):
                if p not in span:
                    gens.append(p)
                    span = mulclose(gens, degree)
            return tuple(gens)

        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(1, 7)
            picks = [Permutation(tuple(rng.sample(range(n), n))) for _ in range(rng.randrange(1, 4))]
            els = PermutationGroup.generate(n, picks).elements
            assert PermutationGroup.from_elements(n, els).generators == greedy(n, els)


def random_picks(rng, n):
    return [Permutation(tuple(rng.sample(range(n), n))) for _ in range(rng.randrange(0, 4))]


class TestPermutationGroup:
    def test_generate_matches_mulclose(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randrange(1, 7)
            picks = random_picks(rng, n)
            g = PermutationGroup.generate(n, picks)
            assert g.elements == mulclose(picks, n)
            assert g.order == len(g.elements) == len(g.rows)
            assert list(g) == sorted(g.elements)
            assert [p.images for p in g] == [tuple(r) for r in g.rows.tolist()]

    def test_rows_are_read_only(self):
        g = PermutationGroup.generate(3, [Permutation((1, 2, 0))])
        with pytest.raises(ValueError):
            g.rows[0, 0] = 1

    def test_from_elements_array_matches_permutations(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 7)
            g = PermutationGroup.generate(n, random_picks(rng, n))
            els = list(g.elements)
            rng.shuffle(els)
            shuffled = np.array([p.images for p in els + els[:2]], dtype=np.int64).reshape(-1, n)
            by_perms = PermutationGroup.from_elements(n, els)
            for block in (g.rows, shuffled):
                by_rows = PermutationGroup.from_elements(n, block)
                assert np.array_equal(by_rows.rows, by_perms.rows)
                assert by_rows.generators == by_perms.generators
                assert by_rows == by_perms and hash(by_rows) == hash(by_perms)
        # degree 0: S_0 is the one empty permutation
        by_perms = PermutationGroup.from_elements(0, [Permutation(())])
        by_rows = PermutationGroup.from_elements(0, np.zeros((1, 0), dtype=np.int64))
        assert by_perms.rows.shape == (1, 0) and by_perms.generators == ()
        assert by_rows == by_perms and hash(by_rows) == hash(by_perms)

    def test_from_elements_rows_match_np_unique(self):
        # sorted and deduplicated as np.unique(rows, axis=0) would
        rng = np.random.default_rng(12)
        for n, gens in ((7, [cycle(7), Permutation((1, 0, 2, 3, 4, 5, 6))]), (4, [cycle(4)]), (1, [])):
            rows = np.array(PermutationGroup.generate(n, gens).rows)
            block = np.concatenate([rows, rows[rng.integers(len(rows), size=len(rows) // 2)]])
            rng.shuffle(block)
            g = PermutationGroup.from_elements(n, block)
            assert np.array_equal(g.rows, np.unique(block, axis=0)) and g.rows.flags.c_contiguous
            assert g == PermutationGroup.from_elements(n, rows)

    def test_generate_of_degree_0(self):
        # S_0 is the one empty permutation, with or without a generator
        s0 = PermutationGroup.from_elements(0, [Permutation(())])
        for gens in ([], [Permutation(())]):
            g = PermutationGroup.generate(0, gens)
            assert g.rows.shape == (1, 0) and g.same_elements(s0)
            assert list(g) == list(s0) == [Permutation(())]

    def test_from_elements_rejects_bad_rows(self):
        s3 = PermutationGroup.generate(3, [Permutation((1, 0, 2)), Permutation((1, 2, 0))])
        with pytest.raises(MalformedInput, match="degree"):
            PermutationGroup.from_elements(4, s3.rows)
        with pytest.raises(MalformedInput, match="permutations"):
            PermutationGroup.from_elements(2, np.array([[0, 1], [0, 0]]))
        with pytest.raises(MalformedInput, match="closed"):
            PermutationGroup.from_elements(3, s3.rows[:5])

    def test_equality_needs_equal_generators(self):
        a, b = Permutation((1, 0, 2)), Permutation((1, 2, 0))
        g = PermutationGroup.generate(3, [a, b])
        h = PermutationGroup.from_elements(3, g.rows)
        assert g.same_elements(h) and g.generators != h.generators and g != h
        assert g == PermutationGroup.generate(3, [a, b])
        assert not g.same_elements(PermutationGroup.generate(3, [b]))

    def test_product_table_at_degree_32(self):
        # base-32 integer ranks of these rows would overflow int64
        flip = Permutation(tuple((32 - i) % 32 for i in range(32)))
        g = PermutationGroup.generate(32, [cycle(32), flip])
        comp, inv = product_table(g.rows)
        els = list(g)
        index = {p: i for i, p in enumerate(els)}
        assert comp.tolist() == [[index[p * q] for q in els] for p in els]
        assert inv.tolist() == [index[p.inverse()] for p in els]

    def test_product_table_of_degree_0(self):
        comp, inv = product_table(np.zeros((1, 0), dtype=np.int64))
        assert comp.tolist() == [[0]] and inv.tolist() == [0]


# ---------------------------------------------------------------------------
# tables read in place


R301 = dihedral_quandle(301)


def with_bad_columns(t, columns, seed):
    """A copy of t with one entry of each of the given columns moved to
    another value in [0, n), so exactly those columns stop being
    permutations."""
    rng = random.Random(seed)
    n = t.shape[0]
    out = np.array(t)
    for j in columns:
        i = rng.randrange(n)
        out[i, j] = (out[i, j] + rng.randrange(1, n)) % n
    return out


def column_oracle(t):
    """The columns of t that are not permutations, by the int64 sort."""
    return np.flatnonzero((np.sort(t, axis=0) != np.arange(len(t))[:, None]).any(axis=0)).tolist()


def block_spots(n, block):
    """Sets of columns, ascending, whose first member sits in the first,
    a middle or the last block of max(1, block // n) columns, some with a
    later bad column in another block."""
    step = max(1, block // n)
    blocks = -(-n // step)
    middle = step * (blocks // 2)
    spots = [{0}, {middle}, {n - 1}, {middle, n - 1}, {1, n - 2}, {min(middle + step, n) - 1, n - 1}]
    return [sorted(s) for s in spots]


class CountingTable(np.ndarray):
    """An int64 table that records each column block read from it."""

    reads = None

    def __getitem__(self, key):
        if self.reads is not None:
            self.reads.append(key)
        return super().__getitem__(key)


class TestTablesInPlace:
    def test_as_table_reads_an_int64_array_in_place(self):
        a = np.array(R3_TABLE, dtype=np.int64)
        for given in (a, np.asfortranarray(a), a.T):
            t = core.as_table(given)
            assert np.shares_memory(t, given) and not t.flags.writeable
            assert given.flags.writeable  # the caller's flag is untouched
        frozen = a.copy()
        frozen.setflags(write=False)
        assert np.shares_memory(core.as_table(frozen), frozen)
        for given in (a.astype(np.int32), R3_TABLE, tuple(map(tuple, R3_TABLE))):
            t = core.as_table(given)
            assert t.dtype == np.int64 and not t.flags.writeable
            assert not np.shares_memory(t, np.asarray(given))
            assert t.base is None  # converted once, so a constructor keeps it

    def test_kept_tables_are_private_read_only_copies(self):
        b = wada_biquandle(cyclic_group(4))
        g = symmetric_group(3)
        cases = (
            (FiniteQuandle, [R3_TABLE], lambda q: [q.table, q.tinv]),
            (FiniteQuandle._proven, [R3_TABLE], lambda q: [q.table, q.tinv]),
            (FiniteBiquandle, [b.under, b.over], lambda x: [x.under, x.over, x.under_inv, x.over_inv]),
            (FiniteGroup, [g.mul], lambda x: [x.mul, x.inv]),
        )
        for build, tables, held in cases:
            for dtype in (np.int64, np.int32):
                given = [np.array(t, dtype=dtype) for t in tables]
                obj = build(*given)
                before = [np.array(h) for h in held(obj)]
                for t in given:
                    assert not any(np.shares_memory(h, t) for h in held(obj))
                    t[...] = 0
                for h, was in zip(held(obj), before):
                    assert np.array_equal(h, was) and not h.flags.writeable

    def test_checks_copy_no_table(self, monkeypatch):
        # every table a check reads is the caller's memory, and a rejected
        # table is never kept
        seen = []
        coerce = core.as_table

        def spied(obj, what="table"):
            t = coerce(obj, what)
            seen.append(np.shares_memory(t, obj))
            return t

        kept = []
        keep = core._keep
        b = wada_biquandle(cyclic_group(5))
        bad = with_bad_columns(R301.table, [7], 1)
        monkeypatch.setattr(core, "as_table", spied)
        monkeypatch.setattr(core, "_keep", lambda t: kept.append(t) or keep(t))
        check_quandle(bad)
        check_quandle(bad, all_witnesses=True)
        check_biquandle(b.under, b.over)
        assert check_ybe(b) and check_ybe((b.under, b.over))
        with pytest.raises(AxiomError):
            FiniteQuandle(bad)
        with pytest.raises(AxiomError):
            FiniteBiquandle(with_bad_columns(b.under, [3], 2), b.over)
        assert seen and all(seen) and kept == []

    def test_column_rejection_allocates_no_table(self):
        b = alexander_biquandle(211, 3, 2)
        u = with_bad_columns(b.under, [100], 3)
        tracemalloc.start()
        try:
            report = check_biquandle(u, b.over)
            with pytest.raises(DomainError):
                ybe_witness(u, b.over)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.violations == (("b2-under-columns", (100,)),)
        assert peak < u.nbytes // 2

    @pytest.mark.parametrize("block, n", [(1 << 15, 301), (40, 13), (3, 7)])
    def test_first_column_witness_is_the_first_listed(self, monkeypatch, block, n):
        monkeypatch.setattr(core._kernels, "_BLOCK", block)
        q = dihedral_quandle(n).table
        b = alexander_biquandle(211 if n == 301 else n, 3, 2)
        for seed, columns in enumerate(block_spots(q.shape[0], block)):
            t = with_bad_columns(q, columns, seed)
            assert column_oracle(t) == columns
            first = dict(check_quandle(t).violations)["r1"]
            listed = [w for axiom, w in check_quandle(t, all_witnesses=True).violations if axiom == "r1"]
            assert first == listed[0] and listed == [(c,) for c in columns]
        for seed, columns in enumerate(block_spots(b.n, block)):
            for side, axiom in enumerate(("b2-under-columns", "b2-over-columns")):
                tables = [b.under, b.over]
                tables[side] = with_bad_columns(tables[side], columns, seed)
                assert column_oracle(tables[side]) == columns
                first = check_biquandle(*tables).violations
                listed = [w for a, w in check_biquandle(*tables, all_witnesses=True).violations if a == axiom]
                assert first[-1] == (axiom, listed[0]) and listed == [(c,) for c in columns]
                with pytest.raises(DomainError, match="a column is not a permutation"):
                    ybe_witness(*tables)
        assert ybe_witness(b.under, b.over) is None

    @pytest.mark.parametrize("block", [1 << 15, 40, 3])
    def test_a_first_witness_reads_no_block_after_its_own(self, monkeypatch, block):
        monkeypatch.setattr(core._kernels, "_BLOCK", block)
        n = 31
        step = max(1, block // n)
        for column in (0, n // 2, n - 1):
            t = with_bad_columns(dihedral_quandle(n).table, [column, n - 1], column).view(CountingTable)
            t.reads = []
            assert next(core._bad_columns(t)) == column
            assert len(t.reads) == column // step + 1
            t.reads = []
            assert list(core._bad_columns(t)) == sorted({column, n - 1})
            assert len(t.reads) == -(-n // step)

    @pytest.mark.parametrize("value", [-1, "n", 1 << 62])
    def test_out_of_range_entries_keep_their_reports(self, value):
        rng = random.Random(7)
        for base in (R301.table, dihedral_quandle(5).table):
            n = base.shape[0]
            v = n if value == "n" else value
            t = np.array(base)
            cells = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(3)} | {(n - 1, n - 1)})
            for cell in cells:
                t[cell] = v
            want = tuple(("entry-range", c) for c in cells)
            assert check_quandle(t).violations == want[:1]
            assert check_quandle(t, all_witnesses=True).violations == want
            assert check_biquandle(t, base).violations == want[:1]
            assert check_biquandle(base, t, all_witnesses=True).violations == want
            for pair in ((t, base), (base, t)):
                with pytest.raises(DomainError, match="pair map undefined: a column is not a permutation"):
                    ybe_witness(*pair)
