"""Hot loops over operation tables: axiom sweeps, Yang-Baxter checks, map closure.

Each kernel has one numpy implementation, batched over the last two
indices of its triple loop.  A sweep returns the lexicographically first
witness as a tuple of Python ints, or None when the identity holds.
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
    for a in range(t.shape[0]):
        # both operands stay alive across the yield: freeing them together
        # lets malloc trim and re-fault their pages on every row (2x slower
        # at n = 301)
        lhs = t[t[a]]                      # lhs[b, c] = (a*b)*c
        rhs = t[t[a][None, :], t]          # rhs[b, c] = (a*c)*(b*c)
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
    for x in range(u.shape[0]):
        xu = u[x][:, None]                 # column over y
        xo = o[x][:, None]
        yield x, (
            u[xu, u.T] != u[u[x][None, :], o],
            o[xu, u.T] != u[o[x][None, :], o],
            o[xo, o.T] != o[o[x][None, :], u],
        )


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

    def rmap(x, y):
        w = oinv[y, x]
        return w, u[x, w]

    B, C = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for a in range(n):
        A = np.full_like(B, a)
        p, q = rmap(A, B)
        q, r_ = rmap(q, C)
        l1, l2 = rmap(p, q)
        l3 = r_
        q2, r2_ = rmap(B, C)
        p2, q2 = rmap(A, q2)
        q3, r3 = rmap(q2, r2_)
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
