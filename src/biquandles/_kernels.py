"""Hot loops over operation tables: axiom sweeps, Yang-Baxter checks, map closure.

Each sweep has one numpy implementation, batched over the last two
indices of its triple loop.  A sweep returns the lexicographically first
witness as a tuple of Python ints, or None when the identity holds.

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

The exchange identities: each says that two composites of column maps,
picked by (y, z), agree as maps of x.  With bijective columns they hold
exactly when (3c) holds, the associated quandle Q, x * y = O_y^-1(x u y),
satisfies R2, and every over column is an automorphism of Q
(exchange_holds has the derivation).  So exchange_holds numbers the
distinct over columns and compares (3c)'s two composites once per
distinct quadruple of over-column ids, then checks R2 and the
automorphisms on a generating set of Q.  Hol(R_7), n = 294, has 42
distinct over columns and 1,764 quadruples, against 86,436 pairs (y, z),
and 9 elements generate its Q; Alexander(211, 3, 2) has one over column
and one quadruple.  exchange_violation runs the row sweep exchange_slabs
when the verdict is a failure.

The braid relation of the pair map is the three exchange identities under
a change of variables (core.ybe_witness has the derivation).  So
core.ybe_witness asks exchange_holds for the verdict, and the braid row
sweep ybe_violation runs only on a failure, to find the witness.

The sweeps, r2_holds and exchange_holds read a product x op y of an
n x n table t as one gather on its flat view, t.ravel().take(x * n + y).
So every table entry must lie in [0, n): an out-of-range entry does not
raise here, as 2-D indexing would, but lands on another cell of the
table.  The callers in core guarantee the range before any check:
check_quandle and check_biquandle test it explicitly, and ybe_witness,
which check_ybe calls on a FiniteBiquandle and on a raw pair alike,
requires every column of both tables to pass _bad_columns, which refuses
out-of-range entries too.
Tables are int64 (as_table's dtype) and may be in any memory order.

The offsets go into n x n buffers allocated once per call.  A fresh grid
per product lets malloc hand its pages back and fault them in again on
every row: the exchange row sweep on Hol(R_7), n = 294, took 0.45 s that
way in a fresh process, and 0.20 s with the buffers.
"""

from __future__ import annotations

import numpy as np

# read by env_stamp in perfbench/run.py, so it stays while that does; there
# is no jitted path
HAVE_NUMBA = False


def _first(bad):
    """Index pair of the first True entry of a 2-D mask, as Python ints."""
    i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return int(i), int(j)


def r2_slabs(t):
    """Per row a, yield (a, bad) with bad[b, c] set where
    (a*b)*c != (a*c)*(b*c)."""
    n = t.shape[0]
    flat = t.ravel()
    offsets = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        row = t[a]
        # both operands stay alive across the yield: freeing them together
        # lets malloc trim and re-fault their pages on every row (2x slower
        # at n = 301)
        lhs = t[row]                       # lhs[b, c] = (a*b)*c
        rhs = flat.take(np.add(row * n, t, out=offsets))  # (a*c)*(b*c)
        yield a, lhs != rhs


def first_violation(slabs):
    """(x, i, j) for the first set entry, in C order, of the 2-D masks that
    slabs yields as (x, bad) in ascending x, or None when none is set."""
    for x, bad in slabs:
        if bad.any():
            return (x, *_first(bad))
    return None


def r2_violation(t):
    """First (a, b, c) violating (a*b)*c == (a*c)*(b*c), or None."""
    return first_violation(r2_slabs(t))


# entries per gather in the blocked checks below.  Fresh processes, best of
# 7 (2 vCPUs), on the quadruple compare: Hol(R_7) took 39-43 ms at 2^15,
# against 89-104 ms at 2^16 and 47-48 ms at 2^13.
_BLOCK = 1 << 15


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
            same = same[(t[:, same] == t[:, g, None]).all(axis=0)]
        firsts.append(outside[:batch])
        new = np.union1d(outside[:batch], same)
        seeds.append(new)
        members[new] = True
        while new.size:
            mem = np.concatenate((old, new))
            reached = np.zeros(n, dtype=bool)
            reached[flat.take(np.add.outer(new * n, mem))] = True
            reached[flat.take(np.add.outer(old * n, new))] = True
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
    """Per row x, yield (x, (bad0, bad1, bad2)): the [y, z] grids where
    identities 0, 1 and 2 fail."""
    n = u.shape[0]
    fu, fo = u.ravel(), o.ravel()
    uT, oT = np.ascontiguousarray(u.T), np.ascontiguousarray(o.T)
    by_y = np.empty((n, n), dtype=np.int64)  # [y, z]: offset of (x . y, z . y)
    by_z = np.empty_like(by_y)               # [y, z]: offset of (x . z, y . z)
    for x in range(n):
        xu = u[x] * n                      # row offsets of x u (.)
        xo = o[x] * n
        np.add(xu[:, None], uT, out=by_y)
        bad0 = fu.take(by_y) != fu.take(np.add(xu, o, out=by_z))
        bad1 = fo.take(by_y) != fu.take(np.add(xo, o, out=by_z))
        np.add(xo[:, None], oT, out=by_y)
        bad2 = fo.take(by_y) != fo.take(np.add(xo, u, out=by_z))
        yield x, (bad0, bad1, bad2)


def _sweep_violation(u, o):
    """exchange_violation by the row sweep: x by x, all three identities."""
    for x, bads in exchange_slabs(u, o):
        hits = [(*_first(bad), code) for code, bad in enumerate(bads) if bad.any()]
        if hits:
            y, z, code = min(hits)
            return code, x, y, z
    return None


def _columns(t):
    """(ids, maps): ids[c] numbers column c of t among its distinct columns,
    and row ids[c] of maps is that column, maps[ids[c], x] = t[x, c]."""
    cols = np.ascontiguousarray(t.T, dtype=np.int64)
    # each column as one opaque 8n-byte key.  np.unique(cols, axis=0)
    # compares field by field: 135 ms per table on Hol(R_11) against 27 ms
    # here; return_inverse would add a third n x n copy (+11 MB peak there)
    keys = cols.view(f"V{8 * cols.shape[1]}").ravel()
    maps = np.unique(keys)
    return np.searchsorted(maps, keys), maps.view(np.int64).reshape(len(maps), -1)


def _composites_differ(maps, quads):
    """Whether M_a M_b != M_c M_d as maps of x for some quadruple
    (a, b, c, d) of the id arrays quads, where maps holds each M_i as row
    i."""
    a, b, c, d = quads
    n = maps.shape[1]
    flat = maps.ravel()
    offsets = maps.take(b, axis=0)
    offsets += (a * n)[:, None]
    left = flat.take(offsets)
    maps.take(d, axis=0, out=offsets)
    offsets += (c * n)[:, None]
    return bool((left != flat.take(offsets)).any())


def _maps_preserve(maps, t, elements):
    """Whether f(x * g) == f(x) * f(g) for every row f of maps, every x and
    every g in elements, where * is the table t: f S_g == S_{f(g)} f.  The
    (f, g) pairs are compared in blocks, one gather per side."""
    k, n = maps.shape
    fm, ft = maps.ravel(), t.ravel()
    f, g = np.divmod(np.arange(k * len(elements)), len(elements))
    g = elements.take(g)
    step = max(1, _BLOCK // n)
    for s in range(0, len(f), step):
        fs, gs = f[s:s + step], g[s:s + step]
        left = fm.take(t[:, gs].T + (fs * n)[:, None])                    # f(x * g)
        right = ft.take(maps.take(fs, axis=0) * n + maps[fs, gs][:, None])  # f(x) * f(g)
        if not np.array_equal(left, right):
            return False
    return True


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
      * (3c) once per distinct quadruple of over-column ids, at most
        min(n^2, k^4) of them with k distinct over columns;
      * R2 on the slices of the firsts of a generating set of Q
        (_generators), as in r2_holds.  Those slices and bijective columns
        at the firsts give every column: S_{c*d} = S_d S_c S_d^-1 is a
        bijective homomorphism when S_c and S_d are;
      * f S_g == S_{f(g)} f for each distinct over column f at the seeds g
        of that generating set alone.
    The equivalences need only the over columns to be bijections, so a
    failure of (3c) or of an R2 slice decides any table whose over columns
    are; every other table with a column that is not a bijection gets the
    row sweep's verdict.  The callers in core check the columns first.
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
    # (3c): the codes of the quadruples go into one grid, built in row
    # blocks, so that no n x n temporaries pile up beside it
    grid = np.empty((n, n), dtype=np.int64)
    step = max(1, _BLOCK // n)  # rows, or quadruples, per block
    dims = (k,) * 4
    for y0 in range(0, n, step):
        ys = slice(y0, y0 + step)
        grid[ys] = np.ravel_multi_index((oid.take(o.T[ys]), oid[ys, None], oid.take(u[ys]), oid), dims)
    codes = grid.ravel()
    codes.sort()  # in place: np.unique would hash a copy, several times slower
    quads = codes[np.r_[True, codes[1:] != codes[:-1]]]
    for s in range(0, len(quads), step):
        if _composites_differ(O, np.unravel_index(quads[s:s + step], dims)):
            return False
    # Q in the grid's memory, by row blocks as the codes: q[x, y] = O_y^-1(x u y)
    q, ids = grid, oid * n
    for x0 in range(0, n, step):
        xs = slice(x0, x0 + step)
        q[xs] = inv.ravel().take(u[xs] + ids)
    firsts, seeds = _generators(q)
    if not _r2_slices_hold(q, firsts):
        return False
    if (np.sort(q[:, firsts], axis=0) != np.arange(n)[:, None]).any():
        return _sweep_violation(u, o) is None
    return _maps_preserve(O, q, seeds)


def exchange_violation(u, o):
    """First violated exchange identity as (code, x, y, z), or None.

    Witnesses are ordered by (x, y, z, code), as in the row sweep over x.
    exchange_holds decides the verdict; only a failure runs the row sweep,
    whose first triple is the witness.
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
    offsets = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        # left composite: r(a, b) = (p, q), then r(q, c), then r(p, .)
        p = oinvT[a]                       # p[b] = oinv[b, a]
        q = u[a].take(p)
        w = oinvT[q]                       # w[b, c] = oinv[c, q[b]]
        l3 = fu.take(np.add((q * n)[:, None], w, out=offsets))
        p_n = (p * n)[:, None]
        l1 = foinvT.take(np.add(p_n, w, out=offsets))      # oinv[w, p]
        l2 = fu.take(np.add(p_n, l1, out=offsets))
        # right composite: r(b, c), then r(a, .), then r(., .)
        p2 = p.take(oinvT)                 # oinv[oinv[c, b], a]
        q2 = u[a].take(p2)
        q3 = foinv.take(np.add(rbc_n, q2, out=offsets))
        np.multiply(q2, n, out=offsets)
        offsets += q3
        r3 = fu.take(offsets)
        bad = (l1 != p2) | (l2 != q3) | (l3 != r3)
        if bad.any():
            return (a, *_first(bad))
    return None


# ---------------------------------------------------------------------------
# closure propagation for bijective-homomorphism search (aut / iso engine).
#
# tA, tB: stacked operation tables, shape (k, n, n).  img maps A-indices to
# B-indices (-1 unassigned), pre is its partial inverse.


def closure_extend(tA, tB, img, pre, new=None):
    """Propagate a partial bijective homomorphism to its closure in place.

    new: the frontier, i.e. the elements mapped since img was last a
    fixpoint; None means every mapped element.  Each round gathers only the
    products with a frontier factor, (new, dom) and (dom, new), and the
    elements it maps form the next round's frontier.  So a caller that
    extends a fixpoint by one assignment a -> b passes new=[a] and pays for
    the products of the new assignments alone.

    Returns True at a fixpoint, False (img/pre then undefined) on conflict.
    """
    dom = np.flatnonzero(img >= 0)
    new = dom if new is None else np.asarray(new, dtype=np.int64)
    while new.size:
        before = img >= 0
        for ta, tb in zip(tA, tB):
            for rows, cols in ((new, dom), (dom, new)):
                P = ta[rows[:, None], cols].ravel()
                I = tb[img[rows][:, None], img[cols]].ravel()
                unm = img[P] == -1
                Pu, Iu = P[unm], I[unm]
                # an unmapped product may not land on an image already used
                if (pre[Iu] != -1).any():
                    return False
                img[Pu] = Iu
                if (img[P] != I).any():
                    return False
                # two unmapped products of this batch landing on one image
                pre[Iu] = Pu
                if (pre[Iu] != Pu).any():
                    return False
        now = img >= 0
        new = np.flatnonzero(now & ~before)
        dom = np.flatnonzero(now)
    return True
