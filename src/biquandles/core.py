"""Operation-table quandles and biquandles, axiom verification, and the
quandle <-> biquandle functors.

Conventions, fixed once for the whole package:
  * elements are dense indices 0..n-1;
  * tables are row-major with table[a][b] = a op b (row = left operand);
  * for a quandle, column b is the right translation S_b : a -> a*b;
  * for a biquandle, under[a][b] = a u b and over[a][b] = a o b, so the
    column maps are alpha_b (under) and beta_b (over).
All values are immutable after validated construction; operations are pure.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels, _search
from ._search import orbit_roots
from .errors import AxiomError, DomainError, MalformedInput


def as_table(obj, what="table"):
    """Coerce to a read-only square int64 array or raise MalformedInput.

    Entries must already be integers: floats, strings and bools are refused,
    not truncated or parsed.
    """
    try:
        t = np.asarray(obj)
    except (TypeError, ValueError) as e:
        raise MalformedInput(f"{what} is not an integer matrix: {e}") from None
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise MalformedInput(f"{what} must be square and nonempty, got shape {t.shape}")
    if t.dtype.kind not in "iu":
        raise MalformedInput(f"{what} entries must be int64 integers, got dtype {t.dtype}")
    # numpy coerces booleans mixed with integers in a list to integers
    if not isinstance(obj, np.ndarray) and any(isinstance(x, (bool, np.bool_)) for row in obj for x in row):
        raise MalformedInput(f"{what} entries must be integers, got a boolean")
    t = t.astype(np.int64)  # a private copy, so the read-only flag is ours
    t.setflags(write=False)
    return t


def _bad_columns(t):
    """Mask of the columns that are not permutations of 0..n-1.

    An out-of-range entry also breaks the sorted comparison, so no separate
    range check is needed.
    """
    n = t.shape[0]
    return (np.sort(t, axis=0) != np.arange(n)[:, None]).any(axis=0)


def _invert_columns(t):
    """inv with inv[t[a, b], b] = a for every column b."""
    n = t.shape[0]
    inv = np.empty_like(t)
    rows = np.broadcast_to(np.arange(n)[:, None], (n, n))
    cols = np.broadcast_to(np.arange(n)[None, :], (n, n))
    inv[t, cols] = rows
    inv.setflags(write=False)
    return inv


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an axiom sweep: passed iff violations is empty.

    Each violation is (axiom id, witness tuple); by default at most one
    witness per axiom is recorded.
    """

    passed: bool
    violations: tuple = ()

    @staticmethod
    def from_violations(violations):
        vs = tuple(violations)
        return AxiomReport(passed=not vs, violations=vs)


def _witnesses(axiom, bad, all_witnesses, prefix=()):
    """(axiom, prefix + index) for each set entry of the mask bad, in C
    order; only the first unless all_witnesses."""
    hits = np.argwhere(bad)[: None if all_witnesses else 1].tolist()
    return [(axiom, (*prefix, *w)) for w in hits]


def check_quandle(table, all_witnesses=False):
    """Verify entry range, idempotency (q1), column bijectivity (r1) and
    right self-distributivity (r2); report one witness per violated axiom
    (all witnesses when all_witnesses is set).

    R2 at a fixed c says that S_c is a homomorphism: S_c(a*b) = S_c(a)*S_c(b).
    If S_d is one, then S_d(a*c) = S_d(a)*S_d(c) reads S_d S_c = S_{c*d} S_d,
    so S_{c*d} = S_d S_c S_d^-1.  When S_d is also a bijection, S_d^-1 is a
    homomorphism too, and so is S_{c*d} whenever S_c is: the c with S_c a
    homomorphism are closed under *.  So when every column is a bijection
    (r1 holds), the slices of a generating set decide R2
    (_kernels.r2_holds), and only a failure runs the n^3 sweep, whose first
    triple is the witness.  Without r1 the inverse need not exist or be a
    homomorphism, so such tables, and every all_witnesses report, keep the
    sweep."""
    t = as_table(table)
    n = t.shape[0]
    inrange = (t >= 0) & (t < n)
    if not inrange.all():
        return AxiomReport.from_violations(_witnesses("entry-range", ~inrange, all_witnesses))
    bad = _witnesses("q1", np.diagonal(t) != np.arange(n), all_witnesses)
    r1 = _witnesses("r1", _bad_columns(t), all_witnesses)
    bad += r1
    if all_witnesses:
        for a, slab in _kernels.r2_slabs(t):
            bad += _witnesses("r2", slab, True, (a,))
    elif r1 or not _kernels.r2_holds(t):
        w = _kernels.r2_violation(t)
        if w is not None:
            bad.append(("r2", w))
    return AxiomReport.from_violations(bad)


_B3 = ("b3a", "b3b", "b3c")  # exchange identities by kernel code


def check_biquandle(under, over, all_witnesses=False):
    """Verify the diagonal axiom, bijectivity of both column families and of
    the pair map S(x, y) = (y o x, x u y), and the three exchange identities
    (3a), (3b), (3c); one witness per axiom unless all_witnesses.

    Once both column families are bijections, the exchange identities are
    decided through the associated quandle Q (_kernels.exchange_holds has
    the derivation): (3c) once per distinct quadruple of over columns, and
    R2 of Q and every over column being an automorphism of Q on a
    generating set of Q, far fewer than the n^3 triples.  Their witness is
    still the first triple (x, y, z) of the full sweep: on a failure
    _kernels.exchange_violation runs the row sweep, which all_witnesses
    also uses."""
    u = as_table(under, "under")
    o = as_table(over, "over")
    if u.shape != o.shape:
        raise MalformedInput(f"table sizes differ: {u.shape} vs {o.shape}")
    n = u.shape[0]
    inr = (u >= 0) & (u < n) & (o >= 0) & (o < n)
    if not inr.all():
        return AxiomReport.from_violations(_witnesses("entry-range", ~inr, all_witnesses))
    bad = _witnesses("b1", np.diagonal(u) != np.diagonal(o), all_witnesses)
    cols = {"b2-under-columns": _bad_columns(u), "b2-over-columns": _bad_columns(o)}
    for name, mask in cols.items():
        bad += _witnesses(name, mask, all_witnesses)
    if any(mask.any() for mask in cols.values()):
        return AxiomReport.from_violations(bad)
    # pair map S(x, y) = (over[y, x], under[x, y]) on n^2 points; a point
    # whose code an earlier point already took is a witness
    codes = (o.T * n + u).ravel()
    if not np.array_equal(np.sort(codes), np.arange(n * n)):
        repeat = np.ones(n * n, dtype=bool)
        repeat[np.unique(codes, return_index=True)[1]] = False
        bad += _witnesses("b2-pairmap", repeat.reshape(n, n), all_witnesses)
    if all_witnesses:
        for x, slabs in _kernels.exchange_slabs(u, o):
            for name, slab in zip(_B3, slabs):
                bad += _witnesses(name, slab, True, (x,))
    else:
        w = _kernels.exchange_violation(u, o)
        if w is not None:
            code, *xyz = w
            bad.append((_B3[code], tuple(xyz)))
    return AxiomReport.from_violations(bad)


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection of {0..n-1}, stored as its image tuple."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise MalformedInput(f"not a permutation of 0..{n - 1}: {self.images}")

    @staticmethod
    def identity(n):
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_array(a):
        return Permutation(tuple(np.asarray(a, dtype=np.int64).tolist()))

    @property
    def n(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        """Composition: (p * q)(x) = p(q(x))."""
        return Permutation(tuple(self.images[i] for i in other.images))

    def inverse(self):
        inv = [0] * self.n
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(tuple(inv))

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def array(self):
        return np.array(self.images, dtype=np.int64)

    def cycles(self):
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        return tuple(sorted(len(c) for c in self.cycles()))

    def cycle_notation(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cyc)


def row_keys(block):
    """One hashable key per row of an integer array: its int64 bytes."""
    block = np.ascontiguousarray(block, dtype=np.int64)
    if block.shape[-1] == 0:  # a zero-width void view has no rows
        return [b""] * int(np.prod(block.shape[:-1]))
    return block.view(f"V{8 * block.shape[-1]}").ravel().tolist()


def _row_lookup(rows):
    """The function mapping a block of image rows to their indices in rows;
    it raises MalformedInput at a row that is not among them."""
    index = dict(zip(row_keys(rows), range(len(rows))))

    def lookup(block):
        found = [index.get(key) for key in row_keys(block)]
        if None in found:
            raise MalformedInput("element set is not closed under composition")
        return found

    return lookup


def product_table(rows):
    """(comp, inv) for a group given as the image rows of all its elements:
    comp[i, j] and inv[i] are the indices of rows[i] o rows[j] and of
    rows[i]^-1 among the rows."""
    m = len(rows)
    lookup = _row_lookup(rows)
    comp = np.array(lookup(rows[:, rows]), dtype=np.int64).reshape(m, m)
    inv = np.array(lookup(np.argsort(rows, axis=1)), dtype=np.int64)
    return comp, inv


@dataclass(frozen=True, eq=False)
class PermutationGroup:
    """An explicit permutation group: its generators, and rows, the
    read-only (order, degree) int64 array of its elements' image rows in
    lexicographic order.  rows is the one listing of the elements: order
    is its length, iteration yields its rows as Permutations, and elements
    is the same set as a frozenset, built on first read.  Two groups are
    equal when their degree, generators and elements are."""

    degree: int
    generators: tuple
    rows: np.ndarray

    @staticmethod
    def generate(degree, gens):
        """The group the permutations gens generate: the identity row,
        multiplied on the left by every generator until no new row
        appears."""
        gens = tuple(gens)
        for g in gens:
            if g.n != degree:
                raise MalformedInput("generator degree mismatch")
        by = np.array([g.images for g in gens], dtype=np.int64).reshape(len(gens), degree)
        frontier = np.arange(degree, dtype=np.int64)[None, :]
        seen = set(row_keys(frontier))
        found = [frontier]
        while len(frontier):
            # g o h for g in gens, h new
            block = by[:, frontier].reshape(len(by) * len(frontier), degree)
            fresh = {key: i for i, key in enumerate(row_keys(block)) if key not in seen}
            seen.update(fresh)
            frontier = block[list(fresh.values())]
            found.append(frontier)
        rows = np.concatenate(found)
        if degree:  # lexsort needs a key; degree 0 has the one empty row
            rows = rows[np.lexsort(rows.T[::-1])]
        rows.setflags(write=False)
        return PermutationGroup(degree, gens, rows)

    @staticmethod
    def from_elements(degree, elements):
        """Wrap an explicit element set, given as Permutations or as an
        array of image rows, picking a small generating set: in sorted
        order, each element outside the span of those picked so far.

        The span grows on image rows by whole cosets (Dimino's algorithm):
        adding g to a span H gives the union of the cosets H o r for r the
        words in the generators, and a coset met once is met whole.
        """
        if isinstance(elements, np.ndarray):
            rows = np.array(elements, dtype=np.int64)
            if rows.ndim != 2 or rows.shape[1] != degree:
                raise MalformedInput("element degree mismatch")
            if not (np.sort(rows, axis=1) == np.arange(degree)).all():
                raise MalformedInput("element rows must be permutations")
        else:
            els = tuple(elements)
            if any(len(p.images) != degree for p in els):
                raise MalformedInput("element degree mismatch")
            rows = np.array([p.images for p in els], dtype=np.int64).reshape(len(els), degree)
        rows = np.unique(rows, axis=0)
        rows.setflags(write=False)
        lookup = _row_lookup(rows)
        span = lookup(np.arange(degree, dtype=np.int64)[None, :])
        inspan = np.zeros(len(rows), dtype=bool)
        inspan[span] = True
        gens = []
        for g in range(len(rows)):
            if len(span) == len(rows):
                break
            if inspan[g]:
                continue
            gens.append(g)
            old = rows[span]
            reps = []

            def add_coset(r):
                new = lookup(old[:, rows[r]])  # h o r for h in the old span
                inspan[new] = True
                span.extend(new)
                reps.append(r)

            add_coset(g)
            for r in reps:  # grows while it is walked
                for s in gens:
                    (e,) = lookup(rows[r][rows[s]][None, :])
                    if not inspan[e]:
                        add_coset(e)
        return PermutationGroup(degree, tuple(Permutation.from_array(rows[g]) for g in gens), rows)

    @property
    def order(self):
        return len(self.rows)

    @cached_property
    def elements(self):
        return frozenset(self)

    def __contains__(self, p):
        return p in self.elements

    def __iter__(self):
        return (Permutation(tuple(r)) for r in self.rows.tolist())

    def same_elements(self, other):
        return self.degree == other.degree and np.array_equal(self.rows, other.rows)

    def __eq__(self, other):
        return isinstance(other, PermutationGroup) and self.generators == other.generators and self.same_elements(other)

    def __hash__(self):
        return hash((self.degree, self.generators, self.rows.tobytes()))


# ---------------------------------------------------------------------------
# quandles


# per JSON kind: its table keys, the error for a missing key, the size's noun
_JSON_KINDS = {
    "quandle": (("table",), "quandle JSON needs keys 'n' and 'table'", "table is"),
    "biquandle": (("under", "over"), "biquandle JSON needs keys 'n', 'under', 'over'", "tables are"),
    "group": (("mul",), "group JSON needs keys 'n' and 'mul'", "table is"),
}


def read_json_tables(d, kind, build):
    """build(*tables) on the tables of a quandle, biquandle or group JSON
    object, which must declare their size as n; the size is checked before
    build sweeps any axiom."""
    keys, missing, noun = _JSON_KINDS[kind]
    try:
        n, *tables = [d[k] for k in ("n", *keys)]
    except (KeyError, TypeError):
        raise MalformedInput(missing) from None
    tables = [as_table(t, key) for t, key in zip(tables, keys)]
    size = tables[0].shape[0]
    if size != n:
        raise MalformedInput(f"declared n={n} but {noun} {size}x{size}")
    return build(*tables)


def _memo_invariants(obj, tables):
    """_search._invariants of tables and their multiset as a sorted tuple,
    kept in obj._inv_memo with the table objects they came from and
    recomputed only if obj ever holds other ones.  The tables are read-only
    copies, so the memo cannot go stale while they stay."""
    memo = obj._inv_memo
    if memo is None or not all(map(operator.is_, memo[0], tables)):
        inv = _search._invariants(np.stack(tables))
        memo = obj._inv_memo = (tables, inv, tuple(sorted(inv)))
    return memo[1], memo[2]


class FiniteQuandle:
    """A finite quandle as its validated operation table."""

    __slots__ = ("n", "table", "tinv", "_inv_memo")

    def __init__(self, table):
        t = as_table(table)
        report = check_quandle(t)
        if not report.passed:
            raise AxiomError(report)
        self._hold(t)

    @classmethod
    def _proven(cls, table):
        """The quandle of a table its caller has proved to be one (q1, r1
        and r2), without check_quandle; the table still goes through
        as_table."""
        q = cls.__new__(cls)
        q._hold(as_table(table))
        return q

    def _hold(self, t):
        self.n = t.shape[0]
        self.table = t
        self.tinv = _invert_columns(t)  # tinv[a, b] = S_b^{-1}(a)
        self._inv_memo = None

    def invariants(self):
        """Per-element isomorphism invariants of the table (column cycle
        type, idempotence, orbit size) and their multiset as a sorted tuple,
        computed once."""
        return _memo_invariants(self, (self.table,))

    def op(self, a, b):
        return int(self.table[a, b])

    def op_inv(self, a, b):
        return int(self.tinv[a, b])

    def sx(self, x):
        """The right translation S_x as a permutation."""
        return Permutation(tuple(int(v) for v in self.table[:, x]))

    def __eq__(self, other):
        return isinstance(other, FiniteQuandle) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.table.tobytes())

    def __repr__(self):
        return f"FiniteQuandle(n={self.n})"

    def to_dict(self):
        return {"n": self.n, "table": self.table.tolist()}

    @staticmethod
    def from_dict(d):
        return read_json_tables(d, "quandle", FiniteQuandle)

    def to_json(self):
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(s):
        try:
            d = json.loads(s)
        except json.JSONDecodeError as e:
            raise MalformedInput(f"bad JSON: {e}") from None
        return FiniteQuandle.from_dict(d)


class FiniteBiquandle:
    """A finite biquandle as its validated pair of operation tables."""

    __slots__ = ("n", "under", "over", "under_inv", "over_inv", "_inv_memo")

    def __init__(self, under, over):
        u = as_table(under, "under")
        o = as_table(over, "over")
        report = check_biquandle(u, o)
        if not report.passed:
            raise AxiomError(report)
        self.n = u.shape[0]
        self.under = u
        self.over = o
        self.under_inv = _invert_columns(u)  # alpha_b^{-1}
        self.over_inv = _invert_columns(o)   # beta_b^{-1}
        self._inv_memo = None

    def op_under(self, a, b):
        return int(self.under[a, b])

    def op_over(self, a, b):
        return int(self.over[a, b])

    def invariants(self):
        """Per-element isomorphism invariants of the under and over tables
        and their multiset as a sorted tuple, computed once."""
        return _memo_invariants(self, (self.under, self.over))

    def alpha(self, y):
        return Permutation(tuple(int(v) for v in self.under[:, y]))

    def beta(self, y):
        return Permutation(tuple(int(v) for v in self.over[:, y]))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteBiquandle)
            and np.array_equal(self.under, other.under)
            and np.array_equal(self.over, other.over)
        )

    def __hash__(self):
        return hash((self.under.tobytes(), self.over.tobytes()))

    def __repr__(self):
        return f"FiniteBiquandle(n={self.n})"

    def to_dict(self):
        return {"n": self.n, "under": self.under.tolist(), "over": self.over.tolist()}

    @staticmethod
    def from_dict(d):
        return read_json_tables(d, "biquandle", FiniteBiquandle)

    def to_json(self):
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(s):
        try:
            d = json.loads(s)
        except json.JSONDecodeError as e:
            raise MalformedInput(f"bad JSON: {e}") from None
        return FiniteBiquandle.from_dict(d)


# ---------------------------------------------------------------------------
# structural predicates and invariants


def inner_group(q: FiniteQuandle) -> PermutationGroup:
    """Closure of the right translations {S_x} under composition."""
    gens = tuple(q.sx(x) for x in range(q.n))
    # dedupe generators but keep one per distinct map
    uniq = tuple(sorted(set(gens)))
    return PermutationGroup.generate(q.n, uniq)


def orbits(q: FiniteQuandle):
    """Orbit partition of the inner-group action, sorted by smallest member."""
    out = {}
    for a, root in enumerate(orbit_roots(q.table[None])):
        out.setdefault(root, []).append(a)
    return list(out.values())


def is_connected(q: FiniteQuandle) -> bool:
    return len(orbits(q)) == 1


def is_faithful(q: FiniteQuandle) -> bool:
    cols = {q.table[:, x].tobytes() for x in range(q.n)}
    return len(cols) == q.n


def is_involutory_quandle(q: FiniteQuandle) -> bool:
    """S_x^2 == id for all x."""
    return bool((q.table[q.table, np.arange(q.n)[None, :]] == np.arange(q.n)[:, None]).all())


def is_involutory_biquandle(b: FiniteBiquandle) -> bool:
    """All four involutory identities hold for all pairs."""
    u, o = b.under, b.over
    n = b.n
    X = np.arange(n)[:, None]
    Y = np.arange(n)[None, :]
    c1 = u[X, o[Y, X]] == u[X, Y]       # x u (y o x) == x u y
    c2 = o[X, u[Y, X]] == o[X, Y]       # x o (y u x) == x o y
    c3 = u[u, Y] == X                   # (x u y) u y == x
    c4 = o[o, Y] == X                   # (x o y) o y == x
    return bool(c1.all() and c2.all() and c3.all() and c4.all())


def associated_quandle(b: FiniteBiquandle) -> FiniteQuandle:
    """The quandle with x*y = (x u y) o^{-1} y extracted from a biquandle."""
    n = b.n
    Y = np.broadcast_to(np.arange(n)[None, :], (n, n))
    table = b.over_inv[b.under, Y]
    return FiniteQuandle(table)


def biquandle_of_quandle(q: FiniteQuandle) -> FiniteBiquandle:
    """Embed a quandle as the biquandle with trivial over operation."""
    over = np.broadcast_to(np.arange(q.n)[:, None], (q.n, q.n)).copy()
    return FiniteBiquandle(q.table, over)


def yang_baxter_map(b: FiniteBiquandle):
    """The pair map r(u, v) = (w, u_table[u, w]) with w = beta_u^{-1}(v),
    returned as two n x n coordinate tables (first, second)."""
    n = b.n
    U = np.broadcast_to(np.arange(n)[:, None], (n, n))
    W = b.over_inv.T  # W[u, v] = over_inv[v, u] = beta_u^{-1}(v)
    first = W.copy()
    second = b.under[U, W]
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def ybe_witness(under, over):
    """First braid-relation violation on raw tables, or None.

    Requires every column of both tables to be a permutation (the over
    columns so that the pair map is defined); raises DomainError otherwise.

    The braid relation of r(a, b) = (p, a u p), p o a = b, holds exactly
    when the exchange identities (3a)-(3c) do (the birack result of Fenn,
    Jordan-Santana and Kauffman, Biquandles and virtual links, 2004).
    Write O_y, U_y for column y of o, u.  On (a, b, c) the left composite
    (r x id)(id x r)(r x id) gives r(a, b) = (p, q), q = a u p, then
    r(q, c) = (w, q u w), then r(p, w) = (l1, p u l1); the right composite
    (id x r)(r x id)(id x r) gives r(b, c) = (s, b u s), then
    r(a, s) = (p2, a u p2), then r(a u p2, b u s) = (q3, (a u p2) u q3).
    Since b = O_a(p), p ranges over X as b does, and likewise below.
      * First component: l1 = (O_q O_p)^-1(c), p2 = (O_b O_a)^-1(c), so they
        agree for every c iff O_{a u p} O_p = O_{p o a} O_a: (3c) at
        y = a, z = p.
      * Second, given the first (t = l1 = p2, so s = t o a): p u t = q3
        iff (p u t) o (a u t) = (p o a) u (t o a): (3b) at x = p, y = t,
        z = a.
      * Third, given both (w = t o p): q u w = (a u p2) u q3 iff
        (a u p) u (t o p) = (a u t) u (p u t): (3a) at x = a, y = t, z = p.
    So the exchange check, once per distinct column quadruple, decides the
    verdict, and only a failure runs the n^3 braid sweep, whose first
    triple is the witness.
    """
    u = as_table(under, "under")
    o = as_table(over, "over")
    if u.shape != o.shape:
        raise MalformedInput(f"table sizes differ: {u.shape} vs {o.shape}")
    if _bad_columns(o).any() or _bad_columns(u).any():
        raise DomainError("pair map undefined: a column is not a permutation")
    if _kernels.exchange_holds(u, o):
        return None
    return _kernels.ybe_violation(u, o, _invert_columns(o))


def check_ybe(b) -> bool:
    """True when the braid relation holds on all triples; b is a
    FiniteBiquandle or an (under, over) pair."""
    if isinstance(b, FiniteBiquandle):
        b = (b.under, b.over)
    try:
        under, over = b
    except (TypeError, ValueError):
        raise MalformedInput("check_ybe needs a FiniteBiquandle or an (under, over) pair") from None
    return ybe_witness(under, over) is None
