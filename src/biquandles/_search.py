"""Backtracking engine for bijections preserving families of operation tables.

Serves automorphism groups of groups, quandles and biquandles (tables vs
themselves), isomorphism testing (tables vs other tables), and lift
searches.  Partial maps are extended along a dynamically chosen generating
sequence, depth first with an explicit stack.  Every search node holds a
closed partial map; a candidate assignment a -> b is propagated to its
closure by the kernel in biquandles._kernels with frontier [a], so a node
gathers only the products that involve a or an element it forces: with d
elements mapped before and f after, at most 2k(f - d)f products for k
tables, where a closure restarted from the whole domain gathers 2kf^2 in
its first round alone.  Candidates are pruned by per-element invariants
(column cycle types and orbit size), which relabeling preserves for tables
whose columns are permutations.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import _kernels


def _column_cycle_type(col):
    """Sorted cycle lengths of the map i -> col[i] (a list)."""
    seen = [False] * len(col)
    out = []
    for i in range(len(col)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = col[j]
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
    """Per element a: the cycle types of column a in each table, whether a
    is idempotent in each, and the size of its orbit.

    A relabeling carries these over only when every column is a permutation:
    [[1, 1], [1, 1]] and [[0, 0], [0, 0]] are swapped by 0 <-> 1, yet the
    cycle walk reads (2,) on column 0 of the first and (1, 1) on the second.
    """
    n = tables.shape[1]
    roots = orbit_roots(tables)
    size = Counter(roots)
    cols = [t.T.tolist() for t in tables]
    inv = []
    for a in range(n):
        sig = tuple(_column_cycle_type(c[a]) for c in cols)
        diag = tuple(c[a][a] == a for c in cols)
        inv.append((sig, diag, size[roots[a]]))
    return inv


def preserves_tables(images, tables) -> bool:
    """Whether images is a bijection f with f(T[a,b]) = T[f(a), f(b)] for
    every table T."""
    img = np.asarray(images, dtype=np.int64)
    if sorted(img.tolist()) != list(range(tables[0].shape[0])):
        return False
    return all(np.array_equal(img[t], t[np.ix_(img, img)]) for t in tables)


def table_bijections(tables_a, tables_b, limit=None, colours=None):
    """All bijections f with f(T[a,b]) = T'[f(a), f(b)] for every table pair.

    tables_a, tables_b: equal-length lists of equal-size square int arrays
    whose columns are permutations (group, quandle and biquandle tables).
    The invariants that prune candidates assume this; on other tables a
    bijection may be missed.
    colours: None, or integer labellings (cA, cB) of the two carriers; then
    only bijections with cB[f(a)] == cA[a] are returned (a covering lift is
    coloured by (phi o p, p)).  The colour joins each element's invariant,
    and a node whose closure breaks a colour is dropped.
    Returns image arrays sorted lexicographically; pass limit=1 for a plain
    existence/witness search.
    """
    tA = np.stack([np.asarray(t, dtype=np.int64) for t in tables_a])
    tB = np.stack([np.asarray(t, dtype=np.int64) for t in tables_b])
    if tA.shape != tB.shape:
        return []
    n = tA.shape[1]
    invA = _invariants(tA)
    invB = invA if np.array_equal(tA, tB) else _invariants(tB)
    if colours is not None:
        cA, cB = (np.asarray(c, dtype=np.int64) for c in colours)
        invA, invB = list(zip(invA, cA.tolist())), list(zip(invB, cB.tolist()))
    if Counter(invA) != Counter(invB):
        return []
    classes = {}
    for b, key in enumerate(invB):
        classes.setdefault(key, []).append(b)
    candidates = [classes[key] for key in invA]
    found = []
    # frames (img, pre, a, candidates of a not yet tried): img is closed,
    # a is its first unmapped element
    stack = []

    def push(img, pre):
        """Record a complete map or open a frame; True once limit is met."""
        free = np.flatnonzero(img < 0)
        if free.size == 0:
            found.append(img)
            return limit is not None and len(found) >= limit
        a = int(free[0])
        stack.append((img, pre, a, iter(candidates[a])))
        return False

    done = push(np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64))
    while stack and not done:
        img, pre, a, untried = stack[-1]
        for b in untried:
            if pre[b] != -1:
                continue
            img2 = img.copy()
            pre2 = pre.copy()
            img2[a] = b
            pre2[b] = a
            if _kernels.closure_extend(tA, tB, img2, pre2, [a]) and (
                colours is None or (cB[img2] == cA)[img2 >= 0].all()
            ):
                done = push(img2, pre2)
                break
        else:
            stack.pop()
    found.sort(key=lambda a: a.tolist())
    return found
