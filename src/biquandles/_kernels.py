"""Hot loops over operation tables: axiom sweeps, Yang-Baxter checks, map closure.

Each sweep has one numpy implementation, batched over the last two
indices of its triple loop.  A sweep returns the lexicographically first
witness as a tuple of Python ints, or None when the identity holds.

Two checks are exceptions to the sweep over all n^3 triples: each decides
the verdict alone, and its sweep runs only on a failure, to find the
witness, so every witness is the sweep's first triple.  The sweeps also
serve all_witnesses reports.

R2 on a table whose columns are permutations: r2_holds checks the slice
c = g of (a*b)*c == (a*c)*(b*c), one n x n gather, only for g in a
generating set, because the c whose column passes are closed under the
operation (core.check_quandle has the derivation).  R_301, whose columns
are all distinct, checks 2 slices, and trivial_quandle(1100) checks 1.
The worst case is n slices, the sweep's own work.

The exchange identities: each says that two composites of column maps,
picked by (y, z), agree as maps of x.  So exchange_holds numbers the
distinct columns of both tables, and compares the two composites once per
distinct quadruple of column ids.  With at most k distinct columns in
either table, an identity has at most min(n^2, k^4) quadruples, and
product constructions repeat their columns: Hol(R_7), n = 294, has 42
distinct columns in each table and 10,584 + 1,764 + 1,764 quadruples,
against 3 x 86,436 pairs (y, z).  exchange_violation runs the row sweep
exchange_slabs when the verdict is a failure.

The braid relation of the pair map is the three exchange identities under
a change of variables (core.ybe_witness has the derivation).  So
core.ybe_witness asks exchange_holds for the verdict, and the braid row
sweep ybe_violation runs only on a failure, to find the witness.

The sweeps and r2_holds read a product x op y of an n x n table t as one
gather on its flat view, t.ravel().take(x * n + y).  So every table entry
must lie in [0, n): an out-of-range entry does not raise here, as 2-D
indexing would, but lands on another cell of the table.  The callers in
core guarantee the range before any check: check_quandle and
check_biquandle test it explicitly, and ybe_witness, which check_ybe calls
on a FiniteBiquandle and on a raw pair alike, requires every column of
both tables to pass _bad_columns, which refuses out-of-range entries too.
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


def _r2_slice_holds(t, flat, c):
    """Whether column c of t is a homomorphism: (a*b)*c == (a*c)*(b*c) for
    every (a, b), as one n x n gather; flat is t's C-order flat view."""
    col = t[:, c]
    return bool((col.take(t) == flat.take(col[:, None] * t.shape[0] + col)).all())


def r2_holds(t):
    """Whether (a*b)*c == (a*c)*(b*c) on all triples, for a table t whose
    columns are all permutations.

    The elements c whose column S_c is a homomorphism form a set C that is
    closed under the operation (core.check_quandle has the derivation), and
    whether c is in C depends on column c alone.  So C grows from nothing:
    check the slice of the smallest g outside C, add every element whose
    column equals column g, and close under products with the new members,
    until C is everything or a slice fails.  At most n slices are checked,
    the sweep's own n^3 work; a table that a few columns generate checks
    only those.
    """
    n = t.shape[0]
    flat = t.ravel()
    members = np.zeros(n, dtype=bool)  # C
    g = 0
    while True:
        if not _r2_slice_holds(t, flat, g):
            return False
        # columns equal to column g; row 0 narrows the candidates first
        same = np.flatnonzero(t[0] == t[0, g])
        new = same[(t[:, same] == t[:, g, None]).all(axis=0)]
        while new.size:
            old = np.flatnonzero(members)
            members[new] = True
            reached = np.zeros(n, dtype=bool)
            reached[t[np.ix_(new, np.flatnonzero(members))]] = True
            reached[t[np.ix_(old, new)]] = True
            new = np.flatnonzero(reached & ~members)
        if members.all():
            return True
        g = int(np.argmin(members))


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
    """Whether P_a o Q_b != R_c o S_d as maps of x for some quadruple
    (a, b, c, d) of the id arrays quads, where maps = (P, Q, R, S) hold
    their maps as rows."""
    P, Q, R, S = maps
    a, b, c, d = quads
    n = P.shape[1]
    offsets = Q.take(b, axis=0)
    offsets += (a * n)[:, None]
    left = P.ravel().take(offsets)
    S.take(d, axis=0, out=offsets)
    offsets += (c * n)[:, None]
    right = R.ravel().take(offsets)
    return bool((left != right).any())


# entries per block: rows of quadruple codes times n, or quadruples times n
# in one compare; capped at n^2.  Fresh processes, best of 7 (2 vCPUs):
# Hol(R_7) took 39-43 ms at 2^15, against 89-104 ms at 2^16 and 47-48 ms
# at 2^13; Alexander(211, 3, 2) (75-79 ms) and Hol(R_11) (1.5-1.6 s)
# barely moved.
_BLOCK = 1 << 15


def exchange_holds(u, o):
    """Whether the three exchange identities hold on all triples.

    Each identity says that two composites of column maps, picked by
    (y, z), agree as maps of x:
        (3a) U_{z u y} U_y == U_{y o z} U_z
        (3b) O_{z u y} U_y == U_{y o z} O_z
        (3c) O_{z o y} O_y == O_{y u z} O_z
    with U_c, O_c column c of u, o.  So each identity is checked once per
    distinct quadruple of column ids, not once per (x, y, z).
    """
    n = u.shape[0]
    U, O = _columns(u), _columns(o)
    # per identity: the families of P, Q, R, S in P_a Q_b == R_c S_d, and
    # the [y, z] grids whose entries pick a and c; b is picked by y, d by z
    identities = (((U, U, U, U), u.T, o), ((O, U, U, O), u.T, o), ((O, O, O, O), o.T, u))
    # the codes go into one grid, built in row blocks, so that no n x n
    # temporaries pile up beside it
    grid = np.empty((n, n), dtype=np.int64)
    step = max(1, min(n, _BLOCK // n))  # at most n^2 entries, as the row sweep's buffers
    for families, by_a, by_c in identities:
        (pid, P), (qid, Q), (rid, R), (sid, S) = families
        dims = (len(P), len(Q), len(R), len(S))
        for y0 in range(0, n, step):
            ys = slice(y0, y0 + step)
            grid[ys] = np.ravel_multi_index((pid.take(by_a[ys]), qid[ys, None], rid.take(by_c[ys]), sid), dims)
        codes = grid.ravel()
        codes.sort()  # in place: np.unique would hash a copy, several times slower
        quads = codes[np.r_[True, codes[1:] != codes[:-1]]]
        for k in range(0, len(quads), step):
            if _composites_differ((P, Q, R, S), np.unravel_index(quads[k:k + step], dims)):
                return False
    return True


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
