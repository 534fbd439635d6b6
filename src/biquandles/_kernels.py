"""Hot loops over operation tables: axiom sweeps, Yang-Baxter checks, map closure.

Each sweep has one numpy implementation, a gather rule for the one
witness walk (walk): the walk visits the rows (x, y) of the triple loop in
C order, a block of rows at a time, and the rule gives the block's mask
over the last index z.  A block holds _BLOCK // n rows, so at small n it
spans several x, and at large n part of one.  first_violation stops at the
first block with a set entry, so a sweep returns the lexicographically
first witness, as a tuple of Python ints, or None when the identity holds,
having built no block after the witness's own; all_violations lists every
set entry of the same blocks, in the same order.  An entry corruption of
R_301 fails r1, so its R2 witness comes from the walk; that witness sits
in row a = 0, and for most corruptions in the first block of 108 rows,
of the 301 rows of a = 0.  The R2, exchange and braid sweeps and the
union conditions of combinators (_union_slabs) are the rules of this
walk: each witness needs its z.

Two checks are exceptions to the sweep over all n^3 triples: each decides
the verdict alone, and its sweep runs only on a failure, to find the
witness, so every witness is the sweep's first triple.  The sweeps also
serve all_witnesses reports.

R2 on a table whose columns are permutations: r2_holds checks the slice
c = g of (a*b)*c == (a*c)*(b*c) only for g in a generating set
(_generators), because the c whose column passes are closed under the
operation (core.check_quandle has the derivation).  R_301, whose columns
are all distinct, checks 2 slices, and trivial_quandle(1100) checks 1.
The worst case is n slices, the sweep's own work.  At small n a gather
takes several whole slices, up to _BLOCK entries, so Hol(R_3)'s
associated quandle, n = 18, checks all 18 slices in one gather.

The pair check: a condition "M_a M_b == M_c M_d as maps, for the
(a, b, c, d) that each pair (x, y) picks from one family of maps" goes
through first_disagreement, which compares each distinct quadruple of map
ids once and returns the first failing pair in C order: exchange_holds'
(3c), structure condition 1 (structures.validate_structure), and the
combinators' conjugation-homomorphism and product-case conditions.
automorphism_mask checks bijections for automorphisms of a quandle once
per distinct map, at the seeds of a generating set alone.  With bijective
over columns the exchange identities hold exactly when (3c) holds, the
associated quandle Q, x * y = O_y^-1(x u y), satisfies R2, and every over
column is in Aut(Q) (exchange_holds has the derivation).  Hol(R_7),
n = 294, has 42 distinct over columns and 1,764 quadruples, against
86,436 pairs (y, z), and 9 elements generate its Q.  exchange_violation
walks exchange_slabs when the verdict is a failure.

The braid relation of the pair map is the three exchange identities under
a change of variables (core.ybe_witness has the derivation).  So
core.ybe_witness asks exchange_holds for the verdict, and the braid
sweep ybe_violation runs only on a failure, to find the witness.

The sweeps, r2_holds and exchange_holds read a product x op y of an
n x n table t as one gather on its flat view, t.ravel().take(x * n + y).
So every table entry must lie in [0, n): an out-of-range entry does not
raise here, as 2-D indexing would, but lands on another cell of the
table.  The callers in core guarantee the range before any check, by
two reductions, t.min() >= 0 and t.max() < n (core._in_range), and build
the n x n mask of out-of-range cells only to list entry-range witnesses:
check_quandle and check_biquandle report them, and ybe_witness and
check_ybe raise DomainError on a raw pair.  Only then does
core._bad_columns sort the columns in a dtype narrower than int64, so no
entry is clipped and none can wrap onto a valid value.  Tables are int64
(as_table's dtype), read in place, and may be in any memory order.

The R2, exchange and braid rules write their products into block-sized
buffers that walk allocates once per walk, and gather into them with
mode="clip", which skips the copy of the output that mode="raise" makes;
the offsets are in range, so the two modes agree.  A fresh block-sized
array per product lets malloc hand its pages back and fault them in again
on every block: the exchange and braid sweeps of Hol(R_7), n = 294, took
1.1-1.4 s each that way in a fresh process, with 645,000 page faults,
and 0.5-0.6 s with the buffers, with about 1,000.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# read by env_stamp in perfbench/run.py, so it stays while that does; there
# is no jitted path
HAVE_NUMBA = False


# entries per gather in the blocked checks below.  Fresh processes, best of
# 7 (2 vCPUs), on the quadruple compare: Hol(R_7) took 39-43 ms at 2^15,
# against 89-104 ms at 2^16 and 47-48 ms at 2^13.
_BLOCK = 1 << 15


def walk(m, width, rule, buffers=0):
    """The witness walk over the triples (x, y, z) of [0, m)^2 x [0, width).

    Yields (x, y, bad) per block of rows in C order: x and y index the
    block's rows (x[i], y[i]), consecutive in C order, and bad is the
    block's mask, bad[i, z, ...] for the triple (x[i], y[i], z).  A block
    holds max(1, _BLOCK // width) rows: several x at small m, part of one x
    at large m.

    bad = rule(x, y, *work): work is the given number of int64 buffers of
    the block's shape, allocated once per walk, for the rule's products;
    bad itself must be a fresh array.
    """
    rows = m * m
    step = max(1, _BLOCK // width)
    work = np.empty((buffers, min(step, rows), width), dtype=np.int64)
    for r in range(0, rows, step):
        x, y = np.divmod(np.arange(r, min(r + step, rows)), m)
        yield x, y, rule(x, y, *work[:, :len(x)])


def first_violation(blocks):
    """(x, y, z, ...) for the first set entry, in C order, of the masks of a
    walk, or None when none is set.  Blocks after the first one with a set
    entry are never built."""
    for x, y, bad in blocks:
        if bad.any():
            i, *rest = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return (int(x[i]), int(y[i]), *map(int, rest))
    return None


def all_violations(blocks):
    """Every set entry of the masks of a walk, as first_violation's tuples,
    in C order."""
    out = []
    for x, y, bad in blocks:
        i, *rest = np.nonzero(bad)
        out += zip(x[i].tolist(), y[i].tolist(), *(r.tolist() for r in rest))
    return out


def r2_slabs(t):
    """The walk of the R2 sweep: bad[i, c] set where (a*b)*c != (a*c)*(b*c)
    at (a, b) = (x[i], y[i])."""
    n = t.shape[0]
    flat = t.ravel()

    def rule(a, b, left, right, offsets):
        t.take(a, axis=0, out=offsets, mode="clip")
        offsets *= n
        offsets += t.take(b, axis=0, out=left, mode="clip")      # (a*c, b*c)
        t.take(flat.take(a * n + b), axis=0, out=left, mode="clip")  # (a*b)*c
        return left != flat.take(offsets, out=right, mode="clip")

    return walk(n, n, rule, 3)


def r2_violation(t):
    """First (a, b, c) violating (a*b)*c == (a*c)*(b*c), or None."""
    return first_violation(r2_slabs(t))


def _r2_slices_hold(t, cs):
    """Whether the columns cs of t are homomorphisms: (a*b)*c == (a*c)*(b*c)
    for every (a, b) and every c in cs.  Each gather covers at most _BLOCK
    entries, or one row: several whole slices at small n, a block of rows
    of one slice at large n."""
    n = t.shape[0]
    flat = t.ravel()
    batch = max(1, _BLOCK // (n * n))       # slices per gather
    step = max(1, _BLOCK // (batch * n))    # rows per gather
    for i in range(0, len(cs), batch):
        cols = np.ascontiguousarray(t[:, cs[i:i + batch]].T)  # cols[j] = column c_j
        shift = (np.arange(len(cols)) * n)[:, None, None]
        for a in range(0, n, step):
            rows = slice(a, a + step)
            lhs = cols.take(t[rows] + shift)                              # (a*b)*c
            rhs = flat.take(cols[:, rows, None] * n + cols[:, None, :])   # (a*c)*(b*c)
            if (lhs != rhs).any():
                return False
    return True


def _mark_products(flat, n, left, right, reached):
    """Set reached at every product l * r, l in left and r in right, of the
    table flat; each gather covers at most _BLOCK products, or one l."""
    step = max(1, _BLOCK // max(1, len(right)))
    for s in range(0, len(left), step):
        reached[flat.take(np.add.outer(left[s:s + step] * n, right))] = True


def _generators(t):
    """(firsts, seeds): seeds generate the table t under its operation, and
    each seed's column equals the column of one of firsts.

    The set C of reached elements grows from nothing.  Each step adds the
    smallest elements outside C, as many as _r2_slices_hold takes whole
    slices per gather (one once n^2 >= _BLOCK), and every element outside C
    whose column equals the column of the smallest; then C closes under
    products with the new members, each round gathering only the products
    with a new factor.  So a table that a few elements generate has only
    those in firsts at large n, and a table whose columns all coincide has
    one.
    """
    n = t.shape[0]
    flat = t.ravel()
    batch = max(1, _BLOCK // (n * n))
    members = np.zeros(n, dtype=bool)  # C
    old = np.empty(0, dtype=np.int64)  # C before the round
    firsts, seeds = [], []
    while not members.all():
        outside = np.flatnonzero(~members)
        g = outside[0]
        # row 0 narrows the candidates for column g first
        same = outside[t[0].take(outside) == t[0, g]]
        if len(same) > 1:
            # in blocks of columns, at most _BLOCK entries or one column each
            step = max(1, _BLOCK // n)
            keep = [(t[:, c] == t[:, g, None]).all(axis=0) for c in np.split(same, range(step, len(same), step))]
            same = same[np.concatenate(keep)]
        firsts.append(outside[:batch])
        pick = np.zeros(n, dtype=bool)  # np.union1d would import numpy.ma
        pick[outside[:batch]] = pick[same] = True
        new = np.flatnonzero(pick)
        seeds.append(new)
        members[new] = True
        while new.size:
            mem = np.concatenate((old, new))
            reached = np.zeros(n, dtype=bool)
            _mark_products(flat, n, new, mem, reached)
            _mark_products(flat, n, old, new, reached)
            reached &= ~members
            members |= reached
            old, new = mem, np.flatnonzero(reached)
    return np.concatenate(firsts), np.concatenate(seeds)


def r2_holds(t):
    """Whether (a*b)*c == (a*c)*(b*c) on all triples, for a table t whose
    columns are all permutations.

    The elements c whose column S_c is a homomorphism form a set that is
    closed under the operation (core.check_quandle has the derivation), and
    whether c is in it depends on column c alone.  So the slices of the
    firsts of _generators decide: at most n slices, the sweep's own n^3
    work, and a table that a few elements generate checks only those.
    """
    return _r2_slices_hold(t, _generators(t)[0])


# ---------------------------------------------------------------------------
# biquandle exchange identities; codes 0, 1, 2 for the three shapes
#   0: (x u y) u (z u y) == (x u z) u (y o z)
#   1: (x u y) o (z u y) == (x o z) u (y o z)
#   2: (x o y) o (z o y) == (x o z) o (y u z)
# with u = under table, o = over table


def exchange_slabs(u, o):
    """The walk of the exchange sweep: bad[i, z, code] set where identity
    code fails at (x, y, z), (x, y) = (x[i], y[i]).  So the walk's first
    entry is the least (x, y, z, code)."""
    n = u.shape[0]
    fu, fo = u.ravel(), o.ravel()
    uT, oT = np.ascontiguousarray(u.T), np.ascontiguousarray(o.T)

    def rule(x, y, by_y, at_y, at_x, left, right):
        xy = x * n + y
        bad = np.empty((3, len(x), n), dtype=bool)  # one contiguous mask per code
        uT.take(y, axis=0, out=by_y, mode="clip")
        by_y += (fu.take(xy) * n)[:, None]                # (x u y, z u y)
        o.take(y, axis=0, out=at_y, mode="clip")
        u.take(x, axis=0, out=at_x, mode="clip")
        at_x *= n
        at_x += at_y                                      # (x u z, y o z)
        np.not_equal(fu.take(by_y, out=left, mode="clip"), fu.take(at_x, out=right, mode="clip"), out=bad[0])
        o.take(x, axis=0, out=at_x, mode="clip")
        at_x *= n
        at_y += at_x                                      # (x o z, y o z)
        np.not_equal(fo.take(by_y, out=left, mode="clip"), fu.take(at_y, out=right, mode="clip"), out=bad[1])
        oT.take(y, axis=0, out=by_y, mode="clip")
        by_y += (fo.take(xy) * n)[:, None]                # (x o y, z o y)
        u.take(y, axis=0, out=at_y, mode="clip")
        at_y += at_x                                      # (x o z, y u z)
        np.not_equal(fo.take(by_y, out=left, mode="clip"), fo.take(at_y, out=right, mode="clip"), out=bad[2])
        return np.moveaxis(bad, 0, -1)

    return walk(n, n, rule, 5)


def _sweep_violation(u, o):
    """exchange_violation by the walk: its first (x, y, z, code), as
    (code, x, y, z)."""
    w = first_violation(exchange_slabs(u, o))
    return None if w is None else (w[3], *w[:3])


def _columns(t):
    """(ids, maps): ids[c] numbers column c of t among its distinct columns,
    and row ids[c] of maps is that column, maps[ids[c], x] = t[x, c]."""
    cols = np.ascontiguousarray(t.T, dtype=np.int64)
    # each column as one opaque 8n-byte key.  np.unique(cols, axis=0)
    # compares field by field: 135 ms per table on Hol(R_11) against 27 ms
    # here; return_inverse would add a third n x n copy (+11 MB peak there).
    # The keys are sorted and each run's head kept, as np.unique does, whose
    # masked-array test would import numpy.ma (about 8 ms per process)
    keys = cols.view(f"V{8 * cols.shape[1]}").ravel()
    maps = np.sort(keys)
    head = np.ones(len(maps), dtype=bool)
    head[1:] = maps[1:] != maps[:-1]
    maps = maps[head]
    return np.searchsorted(maps, keys), maps.view(np.int64).reshape(len(maps), cols.shape[1])


def invert_columns(t):
    """inv with inv[t[a, b], b] = a for every column b, read-only."""
    n = t.shape[0]
    inv = np.empty_like(t)
    rows = np.broadcast_to(np.arange(n)[:, None], (n, n))
    cols = np.broadcast_to(np.arange(n)[None, :], (n, n))
    inv[t, cols] = rows
    inv.setflags(write=False)
    return inv


def _composites_differ(maps, quads):
    """The mask of the quadruples (a, b, c, d) of the id arrays quads at
    which M_a M_b != M_c M_d as maps of x, where maps holds each M_i as row
    i."""
    a, b, c, d = quads
    n = maps.shape[1]
    flat = maps.ravel()
    offsets = maps.take(b, axis=0)
    offsets += (a * n)[:, None]
    left = flat.take(offsets)
    maps.take(d, axis=0, out=offsets)
    offsets += (c * n)[:, None]
    return (left != flat.take(offsets)).any(axis=1)


def first_disagreement(ids, maps, a, b, c, d, witness=True):
    """The first pair (x, y), in C order, at which M_a M_b != M_c M_d as
    maps, with (a, b, c, d) = (a[x, y], b[x, y], c[x, y], d[x, y]), or None.

    a, b, c and d index one family of maps and broadcast to one grid of
    pairs (a 1-D one is a row of it); ids[i] numbers map i among the rows
    of maps (_columns).  Each pair's four ids make one code, built by row
    blocks and sorted in place, so each distinct quadruple is compared
    once.  With witness=False, True stands for the pair, at the first
    failing block of quadruples; otherwise the witness is the first pair
    whose code failed, from the codes built again up to its block.
    """
    quad = (a, b, c, d)
    rows, cols = np.broadcast(*quad).shape
    dims = (len(maps),) * 4
    step = max(1, _BLOCK // cols)          # rows per block of codes
    width = max(1, _BLOCK // maps.shape[1])  # quadruples per compare

    def codes(r):
        block = slice(r, r + step)
        return np.ravel_multi_index([ids.take(v[block] if v.ndim == 2 else v) for v in quad], dims)

    grid = np.empty((rows, cols), dtype=np.int64)
    for r in range(0, rows, step):
        grid[r:r + step] = codes(r)
    grid = grid.ravel()
    grid.sort()  # in place: np.unique would hash a copy, several times slower
    quads = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    failed = []
    for s in range(0, len(quads), width):
        block = quads[s:s + width]
        bad = _composites_differ(maps, np.unravel_index(block, dims))
        if bad.any():
            if not witness:
                return True
            failed.append(block[bad])
    if not failed:
        return None
    failed = np.concatenate(failed)
    for r in range(0, rows, step):
        block = codes(r)
        hit = failed.take(np.searchsorted(failed, block), mode="clip") == block
        if hit.any():
            return divmod(r * cols + int(np.argmax(hit)), cols)


def automorphism_mask(maps, t, seeds):
    """The mask of the rows f of maps with f S_g == S_{f(g)} f, that is
    f(x * g) == f(x) * f(g), for every x and every g in seeds, where * is
    the table t.  For a bijection f of a quandle t that seeds generate, it
    says f is an automorphism (exchange_holds has the derivation).  A
    gather covers a block of maps at all seeds or one map at a block of
    seeds, at most _BLOCK entries or one column."""
    k, n = maps.shape
    ft = t.ravel()
    step = max(1, _BLOCK // (n * len(seeds)))  # maps per gather
    width = max(1, _BLOCK // n)                # seeds per gather
    ok = np.ones(k, dtype=bool)
    for i in range(0, k, step):
        f = maps[i:i + step]
        for j in range(0, len(seeds), width):
            g = seeds[j:j + width]
            left = f.take(t.take(g, axis=1).T, axis=1)                          # f(x * g)
            right = ft.take(f[:, None, :] * n + f.take(g, axis=1)[:, :, None])  # f(x) * f(g)
            ok[i:i + step] &= (left == right).all(axis=(1, 2))
    return ok


def exchange_holds(u, o):
    """Whether the three exchange identities hold on all triples.

    Each identity says that two composites of column maps, picked by
    (y, z), agree as maps of x:
        (3a) U_{z u y} U_y == U_{y o z} U_z
        (3b) O_{z u y} U_y == U_{y o z} O_z
        (3c) O_{z o y} O_y == O_{y u z} O_z
    with U_c, O_c column c of u, o.  When the over columns are bijections,
    write U_y = O_y S_y: S_y is column y of the associated quandle Q, with
    x * y = O_y^-1(x u y).
      * (3c) with y and z renamed reads O_{z u y} O_y == O_{y o z} O_z.
      * Given that, (3b) reads O_{y o z} O_z S_y == O_{y o z} S_{y o z} O_z,
        so (3b) <=> O_z S_y == S_{O_z(y)} O_z for all y: O_z is in Aut(Q).
      * Given both, S_{z u y} O_y == O_y S_{z*y} and
        S_{y o z} O_z == O_z S_y, so (3a) reads
        O_{z u y} O_y S_{z*y} S_y == O_{y o z} O_z S_y S_z, and
        (3a) <=> S_{z*y} S_y == S_y S_z: R2 of Q.
      * Once R2 holds and the S_c are bijections, the b with
        f S_b == S_{f(b)} f are closed under * for a bijection f:
        f S_{b*c} = f S_c S_b S_c^-1 = S_{f(c)} S_{f(b)} S_{f(c)}^-1 f
        = S_{f(b)*f(c)} f.
    So the identities hold iff (3c) holds, Q satisfies R2 and every over
    column is an automorphism of Q.  The check:
      * (3c) once per distinct quadruple of over-column ids
        (first_disagreement);
      * R2 on the slices of the firsts of a generating set of Q
        (_generators), as in r2_holds.  Those slices and bijective columns
        at the firsts give every column: S_{c*d} = S_d S_c S_d^-1 is a
        bijective homomorphism when S_c and S_d are;
      * f S_g == S_{f(g)} f for each distinct over column f at the seeds g
        of that generating set alone (automorphism_mask).
    The equivalences need only the over columns to be bijections, so a
    failure of (3c) or of an R2 slice decides any table whose over columns
    are; every other table with a column that is not a bijection gets the
    sweep's verdict.  The callers in core check the columns first.
    """
    n = u.shape[0]
    oid, O = _columns(o)
    k = len(O)
    # each distinct over column inverted by one scatter; a column that is
    # not a bijection loses an entry to a collision
    rows_n = (np.arange(k) * n)[:, None]
    inv = np.empty_like(O)
    inv.ravel()[rows_n + O] = np.arange(n)
    if not (inv.ravel().take(rows_n + O) == np.arange(n)).all():
        return _sweep_violation(u, o) is None
    # (3c) at each pair (y, z): O_{z o y} O_y == O_{y u z} O_z
    ar = np.arange(n)
    if first_disagreement(oid, O, o.T, ar[:, None], u, ar, witness=False):
        return False
    # Q by row blocks: q[x, y] = O_y^-1(x u y)
    q, ids, step = np.empty((n, n), dtype=np.int64), oid * n, max(1, _BLOCK // n)
    for x in range(0, n, step):
        q[x:x + step] = inv.ravel().take(u[x:x + step] + ids)
    firsts, seeds = _generators(q)
    if not _r2_slices_hold(q, firsts):
        return False
    if (np.sort(q[:, firsts], axis=0) != ar[:, None]).any():
        return _sweep_violation(u, o) is None
    return bool(automorphism_mask(O, q, seeds).all())


def exchange_violation(u, o):
    """First violated exchange identity as (code, x, y, z), or None.

    Witnesses are ordered by (x, y, z, code), as in the walk of
    exchange_slabs.  exchange_holds decides the verdict; only a failure
    walks the sweep, whose first triple is the witness.
    """
    return None if exchange_holds(u, o) else _sweep_violation(u, o)


# ---------------------------------------------------------------------------
# Yang-Baxter braid relation for r(a, b) = (w, u[a, w]) with w = oinv[b, a],
# where oinv[v, y] is the inverse of the over-table column y.
# Checks (r x id)(id x r)(r x id) == (id x r)(r x id)(id x r) on all triples;
# core.ybe_witness runs it only where exchange_holds found a failure.


def ybe_violation(u, o, oinv):
    """First triple breaking the braid relation of the pair map, or None."""
    n = u.shape[0]
    fu, foinv = u.ravel(), oinv.ravel()
    oinvT = np.ascontiguousarray(oinv.T)   # oinvT[x, y] = oinv[y, x]
    foinvT = oinvT.ravel()
    # the right composite's first step r(b, c) = (w, u[b, w]) does not
    # depend on a: w = oinvT[b, c], and u[b, w] is kept as a row offset
    rbc_n = fu.take(np.arange(n)[:, None] * n + oinvT) * n

    def rule(a, b, w, offsets, l1, l3, p2):
        # left composite: r(a, b) = (p, q), then r(q, c), then r(p, .)
        p = foinv.take(b * n + a)              # p = oinv[b, a]
        q = fu.take(a * n + p)
        oinvT.take(q, axis=0, out=w, mode="clip")         # w[i, c] = oinv[c, q[i]]
        fu.take(np.add((q * n)[:, None], w, out=offsets), out=l3, mode="clip")
        p_n = (p * n)[:, None]
        foinvT.take(np.add(p_n, w, out=offsets), out=l1, mode="clip")   # oinv[w, p]
        # each product below reuses the buffer of one that is no longer read
        l2 = fu.take(np.add(p_n, l1, out=offsets), out=w, mode="clip")
        # right composite: r(b, c), then r(a, .), then r(., .)
        oinvT.take(b, axis=0, out=offsets, mode="clip")
        offsets *= n
        offsets += a[:, None]
        foinv.take(offsets, out=p2, mode="clip")          # oinv[oinv[c, b], a]
        bad = l1 != p2
        q2 = fu.take(np.add((a * n)[:, None], p2, out=offsets), out=l1, mode="clip")
        rbc_n.take(b, axis=0, out=offsets, mode="clip")
        offsets += q2
        q3 = foinv.take(offsets, out=p2, mode="clip")
        bad |= l2 != q3
        np.multiply(q2, n, out=offsets)
        offsets += q3
        bad |= l3 != fu.take(offsets, out=w, mode="clip")   # r3
        return bad

    return first_violation(walk(n, n, rule, 5))


# ---------------------------------------------------------------------------
# closure propagation for bijective-homomorphism search (aut / iso engine).
#
# tA, tB: stacked operation tables, shape (k, n, n).  img maps A-indices to
# B-indices (-1 unassigned), pre is its partial inverse.


class Layer(NamedTuple):
    """One round of a closure: the pairs of its domain dom with a factor in
    the frontier new, as the |new| x |cols| grid of x in new against y in
    cols = dom ++ old, where old = dom without new.  The grid cell (x, y)
    is the pair (x, y) for y in dom and the pair (y, x) for y in old, so
    its flat offset in an n x n table is x * cl + y * cc, with the weights
    (cl, cc) = (n, 1) over dom and (1, n) over old.

    products: the A products of the grid's pairs in every table, table by
    table, each grid in C order; first: the positions in products that
    first reach an element outside dom; fresh: those elements, ascending.
    new and the dom and old parts of cols are ascending.
    """

    new: np.ndarray
    cols: np.ndarray
    cl: np.ndarray
    cc: np.ndarray
    products: np.ndarray
    first: np.ndarray
    fresh: np.ndarray


class ClosurePlan(NamedTuple):
    """The A side of every closure a search of tables tA makes.

    base: the base points a_0, a_1, ...: each is free in the closure of
    the earlier ones, the first free element, or, in a generating plan,
    the trial winner of closure_plan.
    fixed_at: per element, the level i at which the closure of a_0 .. a_i
    first holds it.
    levels: per base point a_i, the rounds of the closure of the earlier
    base points plus a_i, each a Layer whose frontier new is a_i, then the
    elements the round before reached.
    """

    base: list
    fixed_at: np.ndarray
    levels: list


def _rounds(flat, wl, wc, mapped, a):
    """(layers, held, size): the rounds of the closure of the elements
    mapped (a closed mask) plus a, as Layers, the mask of that closure and
    its size.  Only the pairs with a factor outside mapped are gathered."""
    n = len(mapped)
    held = mapped.copy()
    old, new = np.flatnonzero(held), np.array([a])
    held[a] = True
    layers = []
    while new.size:
        dom = np.flatnonzero(held)
        span = slice(n - dom.size, n + old.size)
        cols, cl, cc = np.concatenate([dom, old]), wl[span], wc[span]
        products = flat.take((new[:, None] * cl + cols * cc).ravel(), axis=1).ravel()
        reach = np.flatnonzero(~held[products])
        fresh, first = np.unique(products.take(reach), return_index=True)
        first = reach.take(first)
        layers.append(Layer(new, cols, cl, cc, products, first, fresh))
        held[fresh] = True
        old, new = dom, fresh
    return layers, held, dom.size


def closure_plan(tA, cells=None):
    """The ClosurePlan of the stacked tables tA.

    Whether an element is reached, and in which round, depends on A alone:
    a round maps exactly the products of its pairs that are still
    unmapped.  So every search node that extends the closure of
    a_0 .. a_(i-1) by a_i -> b meets the rounds of levels[i], whatever b
    and the B side are, up to the round where it fails.  Each ordered pair
    of elements is in one layer of one level, so the products of a plan
    add up to k n^2 entries, one table stack.  The weights cl and cc of a
    layer are the slice [n - |dom|, n + |old|) of two length-2n vectors
    built once per plan, n n times then 1 n times and the reverse: views,
    which hold no entries of their own.

    The candidates for the next base point are the first free element of
    each cell, and the base point is the one whose closure with the
    prefix is largest, the lowest index on ties (base choice as in Sims'
    method, Seress 2003 ch. 4; target cells as in McKay-Piperno 2014).
    They are tried in ascending order, the winner's trial rounds become
    its level, and the trials stop at one that closes every element.  A
    candidate that an earlier trial's closure holds is skipped: its own
    closure lies inside that one, so it cannot win.
    cells: per element the number of its cell (an int array), the
    invariant classes for a listing's generating plan.  None stands for
    one cell of every element, so each base point is the first free one,
    the base is 0, 1, 2, ... wherever the closures allow, and a search's
    first leaf is the least bijection.  On Hol(R_7) that base leaves the
    closures of the first base points holding only the points themselves,
    and a listing makes 578 closure calls; the generating base makes 128.
    """
    k, n, _ = tA.shape
    flat = tA.reshape(k, n * n)
    wl = np.repeat(np.array([n, 1], dtype=np.int64), n)
    wc = np.repeat(np.array([1, n], dtype=np.int64), n)
    mapped = np.zeros(n, dtype=bool)
    fixed_at = np.full(n, n, dtype=np.int64)
    base, levels = [], []
    while not mapped.all():
        if cells is None:
            trials = [int(np.argmin(mapped))]
        else:
            free = np.flatnonzero(~mapped)
            trials = np.sort(free[np.unique(cells[free], return_index=True)[1]]).tolist()
        best = seen = None  # seen: the union of the trial closures so far
        for a in trials:
            if seen is not None and seen[a]:
                continue
            layers, held, size = _rounds(flat, wl, wc, mapped, a)
            if best is None or size > best[3]:
                best = (a, layers, held, size)
            if size == n:
                break
            seen = held.copy() if seen is None else np.logical_or(seen, held, out=seen)
        a, layers, held, _ = best
        fixed_at[held & ~mapped] = len(base)
        mapped = held
        base.append(a)
        levels.append(layers)
    return ClosurePlan(base, fixed_at, levels)


def closure_extend(layers, tB, img, pre):
    """Propagate a partial bijective homomorphism to its closure in place.

    img is the closure of the base points before a_i plus a_i -> b, and
    layers is levels[i] of the A side's ClosurePlan; tB is the B stack as
    one (k, n * n) array.  Each layer gathers only the B products of its
    grid, at the offsets img[new] * cl + img[cols] * cc, which lists them
    in the order of the layer's A products.  The images of the fresh
    elements are the B products at first, which must be unused and
    distinct, and then every product of the layer must map onto its B
    product.

    Returns True at the closure, False (img/pre then undefined) on
    conflict.
    """
    for new, cols, cl, cc, products, first, fresh in layers:
        off = img.take(new)[:, None] * cl
        off += img.take(cols) * cc
        images = tB.take(off.ravel(), axis=1).ravel()
        if fresh.size:
            to = images.take(first)
            # a fresh element may not land on an image already used
            if (pre.take(to) != -1).any():
                return False
            pre[to] = fresh
            # two fresh elements landing on one image
            if (pre.take(to) != fresh).any():
                return False
            img[fresh] = to
        if (img.take(products) != images).any():
            return False
    return True
