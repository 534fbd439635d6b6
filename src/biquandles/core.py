"""Operation-table quandles and biquandles, axiom verification, and the
quandle <-> biquandle functors.

Conventions, fixed once for the whole package:
  * elements are dense indices 0..n-1;
  * tables are row-major with table[a][b] = a op b (row = left operand);
  * for a quandle, column b is the right translation S_b : a -> a*b;
  * for a biquandle, under[a][b] = a u b and over[a][b] = a o b, so the
    column maps are alpha_b (under) and beta_b (over).
Table objects are immutable: they keep read-only copies of their tables,
validated by the public constructors or proved by a theorem in the
library's (the _proven classmethods), and set each attribute once; what
they derive, such as the column inverses, is built on first use in one
compiled Side (_TableObject).  Operations are pure.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels, _search
from ._kernels import invert_columns as _invert_columns
from .errors import AxiomError, DomainError, MalformedInput


def as_table(obj, what="table"):
    """Coerce to a read-only square int64 array or raise MalformedInput.

    Entries must already be integers: floats, strings and bools are refused,
    not truncated or parsed.  An int64 array comes back as a read-only view
    of its own memory, not a copy, so a check reads the caller's table in
    place; a list or another integer dtype is converted once.  The classes
    that keep a table (FiniteQuandle, FiniteBiquandle, groups.FiniteGroup)
    copy a view through _keep, so they never share the caller's memory.
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
    if t.dtype != np.int64:
        t = t.astype(np.int64)
    elif not isinstance(obj, (list, tuple)):
        t = t.view()  # the flag below is the view's, never the caller's
    t.setflags(write=False)
    return t


def _keep(t):
    """A table as_table returned, as an object keeps it: t itself when
    as_table allocated it, and a read-only copy when it is a view of the
    caller's memory."""
    if t.base is not None:
        t = t.copy()
        t.setflags(write=False)
    return t


def _in_range(t):
    """Whether every entry of t lies in [0, n): two reductions, no mask."""
    return t.min() >= 0 and t.max() < t.shape[0]


def _bad_columns(t):
    """The columns of t that are not permutations of 0..n-1, ascending.

    Every entry must lie in [0, n).  The columns are sorted a block of
    _kernels._BLOCK // n at a time, as the smallest signed dtype that holds
    0..n-1 (at n = 301, int16 sorts in about 0.36 ms per table against
    0.62 ms for int64), so a consumer that stops at the first bad column
    never sorts the blocks after it.
    """
    n = t.shape[0]
    dtype = np.min_scalar_type(-n)
    ar = np.arange(n, dtype=dtype)
    step = max(1, _kernels._BLOCK // n)
    for s in range(0, n, step):
        cols = t[:, s:s + step].T.astype(dtype, order="C")  # cols[i] = column s + i
        cols.sort(axis=1)
        yield from (s + np.flatnonzero((cols != ar).any(axis=1))).tolist()


def _column_witnesses(axiom, t, all_witnesses):
    """(axiom, (b,)) for the first column b of t that is not a permutation,
    or for every one when all_witnesses."""
    return [(axiom, (b,)) for b in itertools.islice(_bad_columns(t), None if all_witnesses else 1)]


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
    return _check_quandle(as_table(table), all_witnesses)


def _check_quandle(t, all_witnesses=False):
    """check_quandle on a table that as_table already returned."""
    n = t.shape[0]
    if not _in_range(t):
        return AxiomReport.from_violations(_witnesses("entry-range", (t < 0) | (t >= n), all_witnesses))
    bad = _witnesses("q1", np.diagonal(t) != np.arange(n), all_witnesses)
    r1 = _column_witnesses("r1", t, all_witnesses)
    bad += r1
    if all_witnesses:
        bad += [("r2", w) for w in _kernels.all_violations(_kernels.r2_slabs(t))]
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
    _kernels.exchange_violation walks the sweep, which all_witnesses also
    uses."""
    return _check_biquandle(*_as_tables(under, over), all_witnesses)


def _as_tables(under, over):
    """as_table on an under and an over table of one size."""
    return _same_size(as_table(under, "under"), as_table(over, "over"))


def _same_size(u, o):
    """(u, o), two tables as_table returned, or MalformedInput when their
    sizes differ."""
    if u.shape != o.shape:
        raise MalformedInput(f"table sizes differ: {u.shape} vs {o.shape}")
    return u, o


def _check_biquandle(u, o, all_witnesses=False):
    """check_biquandle on tables that _as_tables already returned."""
    n = u.shape[0]
    if not (_in_range(u) and _in_range(o)):
        out = (u < 0) | (u >= n) | (o < 0) | (o >= n)
        return AxiomReport.from_violations(_witnesses("entry-range", out, all_witnesses))
    bad = _witnesses("b1", np.diagonal(u) != np.diagonal(o), all_witnesses)
    b2 = _column_witnesses("b2-under-columns", u, all_witnesses)
    b2 += _column_witnesses("b2-over-columns", o, all_witnesses)
    if b2:
        return AxiomReport.from_violations(bad + b2)
    # pair map S(x, y) = (over[y, x], under[x, y]) on n^2 points; a point
    # whose code an earlier point already took is a witness
    codes = (o.T * n + u).ravel()
    if not np.array_equal(np.sort(codes), np.arange(n * n)):
        repeat = np.ones(n * n, dtype=bool)
        repeat[np.unique(codes, return_index=True)[1]] = False
        bad += _witnesses("b2-pairmap", repeat.reshape(n, n), all_witnesses)
    if all_witnesses:
        # the walk lists (x, y, z, code); the report lists by (x, code, y, z)
        hits = sorted(_kernels.all_violations(_kernels.exchange_slabs(u, o)), key=operator.itemgetter(0, 3, 1, 2))
        bad += [(_B3[code], (x, y, z)) for x, y, z, code in hits]
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

    @classmethod
    def _proven(cls, images):
        """The permutation with these images, a tuple its caller has proved
        to be a bijection of 0..n-1, without the sort __post_init__ checks
        by."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

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
        """Composition of permutations of one degree: (p * q)(x) = p(q(x))."""
        if self.n != other.n:
            raise MalformedInput(f"permutation degree mismatch: {self.n} and {other.n}")
        return Permutation._proven(tuple(self.images[i] for i in other.images))

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
        """The cycles of length at least 2, each from its least member, in
        order of that member."""
        return [tuple(c) for c in _search.walk_orbits(self.n, (self.images,)) if len(c) > 1]

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


def unique_rows(rows):
    """The distinct rows of a 2-d integer array, in lexicographic order.

    Sorted, then one row per run of equal neighbours: np.unique(axis=0)
    compares field by field, 8.4 ms against 1.0 ms on the 5,040 rows of
    quandle_aut(trivial_quandle(7)) (best of 20, 2 vCPUs).
    """
    if rows.shape[1]:  # lexsort needs a key; zero-width rows are all equal
        rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


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
    is its length, membership compares a permutation's images with the
    rows, iteration yields the rows as Permutations, and elements is the
    same set as a frozenset, built on first read.  Two groups are equal
    when their degree, generators and elements are."""

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
        rows = unique_rows(np.concatenate(found))
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
            rows = np.asarray(elements, dtype=np.int64)
            if rows.ndim != 2 or rows.shape[1] != degree:
                raise MalformedInput("element degree mismatch")
            if not (np.sort(rows, axis=1) == np.arange(degree)).all():
                raise MalformedInput("element rows must be permutations")
        else:
            els = tuple(elements)
            if any(len(p.images) != degree for p in els):
                raise MalformedInput("element degree mismatch")
            rows = np.array([p.images for p in els], dtype=np.int64).reshape(len(els), degree)
        rows = unique_rows(rows)
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
        return p.n == self.degree and bool((self.rows == p.images).all(axis=1).any())

    def __iter__(self):
        # both constructors prove every row a permutation
        return (Permutation._proven(tuple(r)) for r in self.rows.tolist())

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


def from_json_text(s, from_dict):
    """from_dict of the object in the JSON text s; text that is not JSON is
    malformed input."""
    try:
        d = json.loads(s)
    except json.JSONDecodeError as e:
        raise MalformedInput(f"bad JSON: {e}") from None
    return from_dict(d)


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


class _TableObject:
    """An object held as validated n x n operation tables: FiniteQuandle,
    FiniteBiquandle and groups.FiniteGroup.  A subclass validates and keeps
    its tables, sets _kind to its key of _JSON_KINDS, and defines _tables()
    as its tables in that key order, one literal tuple.  Equality, hashing,
    invariants and the JSON form are the tables'.

    The object is immutable: the tables are read-only, and an attribute is
    set once, so assigning or deleting one that is set raises
    AttributeError (pickle and copy set each attribute of a new object
    once).  So what is derived from the tables is built once, on first
    use, in one _search.Side (_side()), and never goes stale."""

    __slots__ = ("n", "_compiled")

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__} is immutable: {name!r} is already set")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot be deleted")

    def _side(self):
        """The tables compiled for the bijection engine and their column
        inverses (_search.Side), built on first use."""
        try:
            return self._compiled
        except AttributeError:
            side = self._compiled = _search.Side(self._tables())
            return side

    def invariants(self):
        """Per-element isomorphism invariants of the tables and their
        multiset as a sorted tuple, computed once."""
        side = self._side()
        return side.invariants, side.multiset

    def __eq__(self, other):
        return type(other) is type(self) and all(map(np.array_equal, self._tables(), other._tables()))

    def __hash__(self):
        return hash(tuple(t.tobytes() for t in self._tables()))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"

    def to_dict(self):
        keys = _JSON_KINDS[self._kind][0]
        return {"n": self.n, **{k: t.tolist() for k, t in zip(keys, self._tables())}}

    @classmethod
    def from_dict(cls, d):
        return read_json_tables(d, cls._kind, cls)

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s):
        return from_json_text(s, cls.from_dict)


class FiniteQuandle(_TableObject):
    """A finite quandle as its validated operation table; tinv[a, b] =
    S_b^{-1}(a), the column inverses, is built on first read."""

    __slots__ = ("table",)
    _kind = "quandle"

    def __init__(self, table):
        t = as_table(table)
        report = _check_quandle(t)
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
        self.table = t = _keep(t)
        self.n = t.shape[0]

    def _tables(self):
        return (self.table,)

    @property
    def tinv(self):
        return self._side().inverse(0)

    def op(self, a, b):
        return int(self.table[a, b])

    def op_inv(self, a, b):
        return int(self.tinv[a, b])

    def sx(self, x):
        """The right translation S_x as a permutation."""
        return Permutation(tuple(int(v) for v in self.table[:, x]))


class FiniteBiquandle(_TableObject):
    """A finite biquandle as its validated pair of operation tables;
    under_inv and over_inv, the column inverses alpha_b^{-1} and
    beta_b^{-1}, are built on first read."""

    __slots__ = ("under", "over")
    _kind = "biquandle"

    def __init__(self, under, over):
        u, o = _as_tables(under, over)
        report = _check_biquandle(u, o)
        if not report.passed:
            raise AxiomError(report)
        self._hold(u, o)

    @classmethod
    def _proven(cls, under, over):
        """The biquandle of tables its caller has proved to be one (b1, b2,
        the pair map and the exchange identities), without check_biquandle;
        the tables still go through as_table."""
        b = cls.__new__(cls)
        b._hold(*_as_tables(under, over))
        return b

    def _hold(self, u, o):
        self.under, self.over = u, o = _keep(u), _keep(o)
        self.n = u.shape[0]

    def _tables(self):
        return (self.under, self.over)

    @property
    def under_inv(self):
        return self._side().inverse(0)

    @property
    def over_inv(self):
        return self._side().inverse(1)

    def op_under(self, a, b):
        return int(self.under[a, b])

    def op_over(self, a, b):
        return int(self.over[a, b])

    def alpha(self, y):
        return Permutation(tuple(int(v) for v in self.under[:, y]))

    def beta(self, y):
        return Permutation(tuple(int(v) for v in self.over[:, y]))


# ---------------------------------------------------------------------------
# structural predicates and invariants


def inner_group(q: FiniteQuandle) -> PermutationGroup:
    """Closure of the right translations {S_x} under composition."""
    gens = tuple(q.sx(x) for x in range(q.n))
    # dedupe generators but keep one per distinct map
    uniq = tuple(sorted(set(gens)))
    return PermutationGroup.generate(q.n, uniq)


def orbits(q: FiniteQuandle):
    """The orbits of the inner group (the right translations S_b, the
    columns), each ascending, in order of least member."""
    return [sorted(o) for o in _search.walk_orbits(q.n, q.table.T.tolist())]


def is_connected(q: FiniteQuandle) -> bool:
    return len(orbits(q)) == 1


def is_faithful(q: FiniteQuandle) -> bool:
    return len(_kernels._columns(q.table)[1]) == q.n


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
    """The quandle with x*y = (x u y) o^{-1} y extracted from a biquandle.

    b's axioms prove it a quandle, so check_quandle is not run: column y is
    S_y = O_y^-1 U_y, a bijection (r1, from b2); x*x = O_x^-1(x u x) = x
    since x u x = x o x (q1, from b1); and the exchange identity (3a) is r2
    of it (the derivation in _kernels.exchange_holds)."""
    return FiniteQuandle._proven(b.over_inv[b.under, np.arange(b.n)])


def biquandle_of_quandle(q: FiniteQuandle) -> FiniteBiquandle:
    """Embed a quandle as the biquandle with trivial over operation.

    q's axioms prove it a biquandle, so check_biquandle is not run: with
    x o y = x every over column is the identity, b1 is q1, the pair map
    (x, y) -> (y, x * y) is a bijection by r1, and each exchange identity
    reduces to r2 of q or to an identity."""
    over = np.broadcast_to(np.arange(q.n)[:, None], (q.n, q.n)).copy()
    return FiniteBiquandle._proven(q.table, over)


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
    u, o = _pair_map_tables(under, over)
    if _kernels.exchange_holds(u, o):
        return None
    return _kernels.ybe_violation(u, o, _invert_columns(o))


def _pair_map_tables(under, over):
    """_as_tables, or DomainError unless every column of both is a permutation."""
    u, o = _as_tables(under, over)
    if not (_in_range(u) and _in_range(o)) or any(next(_bad_columns(t), None) is not None for t in (o, u)):
        raise DomainError("pair map undefined: a column is not a permutation")
    return u, o


def check_ybe(b) -> bool:
    """True when the braid relation holds on all triples; b is a
    FiniteBiquandle or an (under, over) pair.  A pair meets ybe_witness's
    precondition, and the exchange check alone, which ybe_witness proves
    equivalent to the braid relation, is its verdict.  A FiniteBiquandle
    holds without a check: its tables were proved by the exchange check or
    by a theorem when it was built, and it is immutable."""
    if isinstance(b, FiniteBiquandle):
        return True
    try:
        under, over = b
    except (TypeError, ValueError):
        raise MalformedInput("check_ybe needs a FiniteBiquandle or an (under, over) pair") from None
    return _kernels.exchange_holds(*_pair_map_tables(under, over))
