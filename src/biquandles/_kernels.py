"""Hot loops over operation tables: axiom sweeps, Yang-Baxter checks, map closure.

Each kernel has one numpy implementation, batched over the last two
indices of its triple loop.  A sweep returns the lexicographically first
witness as a tuple of Python ints, or None when the identity holds.

The sweeps read a product x op y of an n x n table t as one gather on its
flat view, t.ravel().take(x * n + y).  So every table entry must lie in
[0, n): an out-of-range entry does not raise here, as 2-D indexing would,
but lands on another cell of the table.  The callers in core guarantee the
range before any sweep: check_quandle and check_biquandle test it
explicitly, ybe_witness requires every column to pass _bad_columns, which
refuses out-of-range entries too, and check_ybe on a FiniteBiquandle reads
tables that passed check_biquandle.  Tables are int64 (as_table's dtype)
and may be in any memory order.

The offsets go into n x n buffers allocated once per call.  A fresh grid
per product lets malloc hand its pages back and fault them in again on
every row: the exchange sweep on Hol(R_7), n = 294, took 0.45 s that way
in a fresh process, and 0.20 s with the buffers.
"""

from __future__ import annotations

import numpy as np

# read by the environment stamp of perfbench/run.py; there is no jitted path
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


def r2_violation(t):
    """First (a, b, c) violating (a*b)*c == (a*c)*(b*c), or None."""
    for a, bad in r2_slabs(t):
        if bad.any():
            return (a, *_first(bad))
    return None


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


def exchange_violation(u, o):
    """First violated exchange identity as (code, x, y, z), or None.

    Witnesses are ordered by (x, y, z, code).
    """
    for x, bads in exchange_slabs(u, o):
        hits = [(*_first(bad), code) for code, bad in enumerate(bads) if bad.any()]
        if hits:
            y, z, code = min(hits)
            return code, x, y, z
    return None


# ---------------------------------------------------------------------------
# Yang-Baxter braid relation for r(a, b) = (w, u[a, w]) with w = oinv[b, a],
# where oinv[v, y] is the inverse of the over-table column y.
# Checks (r x id)(id x r)(r x id) == (id x r)(r x id)(id x r) on all triples.


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
