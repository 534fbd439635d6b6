"""Backtracking engine for bijections preserving families of operation tables.

Serves automorphism groups of groups, quandles and biquandles (tables vs
themselves), isomorphism testing (tables vs other tables), and lift
searches.  Partial maps are extended along a dynamically chosen generating
sequence; each candidate assignment is propagated to its closure by the
kernel in biquandles._kernels, so the per-node cost is near-linear in the
number of newly forced images.  Candidates are pruned by per-element
invariants (column cycle types and orbit size), which conjugation preserves.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import _kernels


def _column_cycle_type(col):
    n = col.shape[0]
    seen = np.zeros(n, dtype=bool)
    out = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = int(col[j])
            length += 1
        out.append(length)
    return tuple(sorted(out))


def orbit_roots(tables):
    """A representative of each element's orbit under all column maps of
    all tables (union-find); equal roots mean the same orbit."""
    n = tables.shape[1]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for t in tables:
        for col in t.T.tolist():
            for a, b in enumerate(col):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    return [find(a) for a in range(n)]


def _invariants(tables):
    n = tables.shape[1]
    roots = orbit_roots(tables)
    size = Counter(roots)
    inv = []
    for a in range(n):
        sig = tuple(_column_cycle_type(t[:, a]) for t in tables)
        diag = tuple(int(t[a, a]) == a for t in tables)
        inv.append((sig, diag, size[roots[a]]))
    return inv


def preserves_tables(images, tables) -> bool:
    """Whether images is a bijection f with f(T[a,b]) = T[f(a), f(b)] for
    every table T."""
    img = np.asarray(images, dtype=np.int64)
    if sorted(img.tolist()) != list(range(tables[0].shape[0])):
        return False
    return all(np.array_equal(img[t], t[np.ix_(img, img)]) for t in tables)


def table_bijections(tables_a, tables_b, limit=None):
    """All bijections f with f(T[a,b]) = T'[f(a), f(b)] for every table pair.

    tables_a, tables_b: equal-length lists of equal-size square int arrays.
    Returns image arrays sorted lexicographically; pass limit=1 for a plain
    existence/witness search.
    """
    tA = np.stack([np.asarray(t, dtype=np.int64) for t in tables_a])
    tB = np.stack([np.asarray(t, dtype=np.int64) for t in tables_b])
    if tA.shape != tB.shape:
        return []
    n = tA.shape[1]
    invA = _invariants(tA)
    invB = _invariants(tB)
    if sorted(invA) != sorted(invB):
        return []
    candidates = [[b for b in range(n) if invB[b] == invA[a]] for a in range(n)]
    found = []

    def rec(img, pre):
        free = np.flatnonzero(img < 0)
        if free.size == 0:
            found.append(img.copy())
            return limit is not None and len(found) >= limit
        a = int(free[0])
        for b in candidates[a]:
            if pre[b] != -1:
                continue
            img2 = img.copy()
            pre2 = pre.copy()
            img2[a] = b
            pre2[b] = a
            if _kernels.closure_extend(tA, tB, img2, pre2):
                if rec(img2, pre2):
                    return True
        return False

    img0 = np.full(n, -1, dtype=np.int64)
    pre0 = np.full(n, -1, dtype=np.int64)
    rec(img0, pre0)
    found.sort(key=lambda a: a.tolist())
    return found
