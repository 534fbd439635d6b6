"""Backtracking engine for bijections preserving families of operation tables.

One entry point per question: first_bijection finds the least bijection
from the A side of a first-free plan onto other tables (an isomorphism's
witness), and table_bijections(side, colours) lists one compiled table
stack's self-bijections (automorphism groups; covering lifts, with a
colouring (cA, cB)).  Partial maps are extended along a base, depth
first with an explicit stack.  Every search node holds a closed partial
map and assigns the next base point.  The base, and the rounds in which
the closure of a -> b reaches each new element, depend on the A side
alone: the node at depth i holds the closure of the base points a_0 ..
a_(i-1), as in a Sims base (Sims 1970), whatever their images.  So
_kernels.closure_plan compiles the A side once: the base, and per base
point the layers of its closure, each the grid of its frontier against
its domain with its A products and the positions that first reach a new
element; every pair of elements is in one layer, so a plan holds k n^2
products for k tables, one table stack.  A node replays its level
(_kernels.closure_extend): per layer it maps the grid's two index
vectors through the partial map, gathers the B products of the same
pairs as one weighted grid of offsets, assigns the new elements and
checks that the map stays a bijection and agrees with every product,
with no A-side gather, mask or search for the next free element.
Candidates are pruned by per-element invariants (column cycle types and
orbit size), which relabeling preserves for tables whose columns are
permutations.  A Side, one table stack with its column inverses,
invariants and both plans, each built on first use, is all the engine
compiles of it.

The two questions take two bases.  A witness search's base is 0, 1, 2, ...
as far as the closures allow, each base point the first element the
closure of the earlier ones leaves free, so its first leaf is the least
bijection.  A listing's base is generating (listing_plan): among the first
free element of each invariant class, each base point is the one whose
closure with the earlier ones is largest (Seress 2003, ch. 4; McKay and
Piperno 2014).  On Hol(R_11) the closures of the first ten first-free
base points hold only the points themselves, and the listing made 271,482
closure calls; on the generating base it makes 405.  A listing is sorted
afterwards, so its base does not show in its output.

A search never runs past its first leaf.  A witness search stops there; a
full list is built from the automorphism group of the A side held as a
transversal chain (Sims 1970).  The base comes first, from the plan, with
no search.  The levels are then filled deepest first, one automorphism
fixing the prefix for each image b of a base point a.  The maps found so
far, at this level and deeper, generate a group H that fixes the prefix,
so only one image per H-orbit is searched for (the first leaf below
a -> b): an image in the orbit of a gets a found map composed with an
element of H, and an image in the orbit of one whose search failed has
none (orbit pruning, McKay 1981).  The group is the set of products of one
member per level, formed by numpy gathers and sorted once, and a list
whose two colourings differ is that group composed with a witness.  So
the search work grows with the number of orbits met, not with the product
of the level sizes: the 5,040 automorphisms of the trivial quandle of
order 7 take 27 closures, and the plan fixes the base, not 13,699.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

import numpy as np

from . import _kernels
from .errors import DomainError

# the most maps table_bijections lists: 10**6 permutations of degree 10
# are 80 MB as an array, and each becomes a Python object downstream
MAX_LISTED = 10**6


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


def _union_roots(n, cols):
    """A representative of each of the n elements' orbit under the maps
    cols (union-find); equal roots mean the same orbit."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for col in cols:
        for a, b in enumerate(col):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return [find(a) for a in range(n)]


def orbit_roots(tables):
    """A representative of each element's orbit under all column maps of
    all tables (union-find); equal roots mean the same orbit."""
    return _union_roots(tables.shape[1], (col for t in tables for col in t.T.tolist()))


def _invariants(tables):
    """Per element a: the cycle types of column a in each table, whether a
    is idempotent in each, and the size of its orbit.

    Each distinct column is walked once, for its cycle type and in the
    union-find of the orbits: the paper's product tables repeat their
    columns (Hol(R_7) has 42 distinct columns per table out of 294).

    A relabeling carries these over only when every column is a permutation:
    [[1, 1], [1, 1]] and [[0, 0], [0, 0]] are swapped by 0 <-> 1, yet the
    cycle walk reads (2,) on column 0 of the first and (1, 1) on the second.
    """
    n = tables.shape[1]
    cols = [list(map(tuple, t.T.tolist())) for t in tables]
    cycle_types = {c: _column_cycle_type(c) for c in dict.fromkeys(chain.from_iterable(cols))}
    roots = _union_roots(n, cycle_types)
    size = Counter(roots)
    return [
        (tuple(cycle_types[c[a]] for c in cols), tuple(c[a][a] == a for c in cols), size[roots[a]])
        for a in range(n)
    ]


def preserves_tables(images, tables) -> bool:
    """Whether images is a bijection f with f(T[a,b]) = T[f(a), f(b)] for
    every table T."""
    img = np.asarray(images, dtype=np.int64)
    if sorted(img.tolist()) != list(range(tables[0].shape[0])):
        return False
    return all(np.array_equal(img[t], t[np.ix_(img, img)]) for t in tables)


def _first_leaf(plan, tB, candidates, colours, img, pre, i, untried=None):
    """The first complete map from the A side of plan onto the tables tB
    (stacked as one (k, n * n) array) below the closed partial map img,
    the closure of the base points before a_i = plan.base[i], whose a_i
    takes one of untried (by default its candidates), in depth-first
    order, or None.

    Every node assigns the next base point and tries its candidates in
    ascending order.  On a first-free plan the base point is the first
    element the closed map leaves free, so the closure fixes every element
    before the next one assigned and the first leaf is the least bijection
    below img in lexicographic order; on a generating plan it is some
    bijection below img.
    """
    base, levels = plan.base, plan.levels
    # frames (img, pre, i, candidates of a_i not yet tried): img is the
    # closure of a_0 .. a_(i-1)
    stack = [(img, pre, i, iter(candidates[base[i]] if untried is None else untried))]
    while stack:
        img, pre, i, untried = stack[-1]
        a = base[i]
        for b in untried:
            if pre[b] != -1:
                continue
            img2 = img.copy()
            pre2 = pre.copy()
            img2[a] = b
            pre2[b] = a
            if _kernels.closure_extend(levels[i], tB, img2, pre2) and (
                colours is None or (colours[1][img2] == colours[0])[img2 >= 0].all()
            ):
                if i + 1 == len(base):
                    return img2
                stack.append((img2, pre2, i + 1, iter(candidates[base[i + 1]])))
                break
        else:
            stack.pop()
    return None


def _close_orbit(reps, gens):
    """Extend reps, a map from points x to maps that take one point p to x,
    to the orbit of p under the group gens generate: a new point g(x) gets
    g o reps[x].  Returns reps."""
    queue = list(reps)
    for x in queue:  # grows while it is walked
        for g in gens:
            y = int(g[x])
            if y not in reps:
                reps[y] = g[reps[x]]
                queue.append(y)
    return reps


def _transversals(plan, tA, candidates, colour):
    """The transversal chain of the automorphisms of the tables tA (stacked
    as one (k, n * n) array, with closure plan plan) that keep the
    labelling colour (None: no labelling), level i holding one automorphism
    fixing the prefix of base point a_i for each image of a_i (Sims 1970).
    Every automorphism is t1 o t2 o ... o tk for exactly one choice of ti
    in level i, so the group's order is known before any product is formed.

    The base is the plan's, found with no search: a_i is free in the
    closure of a_0 .. a_(i-1), and on the generating plan of a Side it
    generates the most with them, so few levels hold most of the
    elements; plan.fixed_at holds the level at which each element becomes
    fixed.  Any base gives the same group.  The levels are filled
    deepest first, so the maps found at deeper levels and so far at level i
    generate a group H that fixes the prefix of level i.  An image b of a_i
    is searched for (the first leaf below a_i -> b) only if it is neither
    in the H-orbit of a_i, where a known map composed with an element of H
    reaches it, nor in the H-orbit of an image whose search failed, where
    the same composition would have reached that image (McKay 1981).

    Raises DomainError once the order of the levels filled exceeds
    MAX_LISTED.
    """
    base, fixed_at = plan.base, plan.fixed_at
    n = len(fixed_at)
    colours = None if colour is None else (colour, colour)
    ident = np.arange(n, dtype=np.int64)
    levels = [None] * len(base)
    gens = []  # the maps found by search, deepest level first
    order = 1
    for i in reversed(range(len(base))):
        a = base[i]
        prefix = np.where(fixed_at < i, ident, -1)
        reps = {a: ident}
        failed = set()
        for b in candidates[a]:
            if b in reps or b in failed or fixed_at[b] < i:
                continue
            # the identity prefix is its own preimage array
            leaf = _first_leaf(plan, tA, candidates, colours, prefix, prefix, i, [b])
            if leaf is None:
                failed.update(_close_orbit({b: ident}, gens))
            else:
                gens.append(leaf)
                _close_orbit(reps, gens)
        order *= len(reps)
        if order > MAX_LISTED:
            raise DomainError(
                f"the automorphism group has at least {order} elements, "
                f"more than the {MAX_LISTED} that can be listed"
            )
        levels[i] = np.stack(list(reps.values()))
    return levels


def _classes(inv_a, inv_b):
    """Per element of A, the elements of B with its invariant, ascending."""
    classes = {}
    for b, key in enumerate(inv_b):
        classes.setdefault(key, []).append(b)
    return [classes[key] for key in inv_a]


def first_bijection(plan, tables_b, candidates, colours=None):
    """The first bijection f, in the plan's search order, from the A side
    of plan (its _kernels.closure_plan) onto tables_b, a (k, n, n) int64
    stack, with f(T[a,b]) = T'[f(a), f(b)] for every table pair and, when
    colours = (cA, cB) is given, cB[f(a)] == cA[a]; None when there is
    none.  On a first-free plan it is the least such bijection.

    candidates[a] lists the B elements a may take, ascending (_classes).
    The caller has already matched the two invariant multisets, so the
    sides have one order and no class is empty."""
    k, n = tables_b.shape[:2]
    img = np.full(n, -1, dtype=np.int64)
    return _first_leaf(plan, tables_b.reshape(k, n * n), candidates, colours, img, img.copy(), 0)


class Side:
    """One table stack, compiled on first use for the engine's questions.

    sources: the read-only n x n tables it came from.  Each other part is
    built when first read: tables (their (k, n, n) int64 stack), inverses
    (the column inverses of the sources, one per table, as
    _kernels.invert_columns builds them), invariants (_invariants of the
    stack), multiset (them sorted, as a tuple), witness_plan (the
    first-free _kernels.closure_plan, for first_bijection's least witness),
    listing_plan (the generating plan, on the invariant classes, for
    table_bijections) and generators (_kernels._generators of the first
    table).
    """

    def __init__(self, tables):
        self.sources = tuple(tables)

    def __getattr__(self, name):
        """Build a part on its first read and keep it in the instance, where
        later reads find it without this call.  (functools.cached_property
        takes a lock every instance shares on Python 3.11, about 3 us more
        per fresh Side.)"""
        try:
            build = _PARTS[name]
        except KeyError:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}") from None
        value = self.__dict__[name] = build(self)
        return value


def _listing_plan(side):
    cells = {}
    ids = np.array([cells.setdefault(key, len(cells)) for key in side.invariants], dtype=np.int64)
    return _kernels.closure_plan(side.tables, ids)


# the parts of a Side, each built by its function of the Side on first read
_PARTS = {
    "tables": lambda side: np.stack([np.asarray(x, dtype=np.int64) for x in side.sources]),
    "inverses": lambda side: tuple(map(_kernels.invert_columns, side.sources)),
    "invariants": lambda side: _invariants(side.tables),
    "multiset": lambda side: tuple(sorted(side.invariants)),
    "witness_plan": lambda side: _kernels.closure_plan(side.tables),
    "listing_plan": _listing_plan,
    "generators": lambda side: _kernels._generators(side.sources[0]),
}


def table_bijections(side, colours=None):
    """All bijections f of the carrier with f(T[a,b]) = T[f(a), f(b)] for
    every table T of side (a Side), as one (k, n) array of
    image rows, sorted lexicographically ((0, n) when there is none).

    The tables are equal-size square int arrays whose columns are
    permutations (group, quandle and biquandle tables); the invariants
    that prune candidates assume this, and on other tables a bijection may
    be missed.
    colours: None, or integer labellings (cA, cB) of the carrier; then only
    f with cB[f(a)] == cA[a] are listed (a covering lift is coloured by
    (phi o p, p)).  The colour joins each element's invariant, and a node
    whose closure breaks a colour is dropped.
    Raises DomainError when the list would exceed MAX_LISTED maps.

    The list is t o G: G the automorphisms keeping cA, as products of a
    transversal chain, and t a bijection taking cA to cB (first_bijection
    on the side's plan), searched for only when the colourings differ.
    Both searches run on the generating plan, so t need not be the least
    such bijection; t o G, sorted, does not depend on which one it is.
    """
    t, inv, plan = side.tables, side.invariants, side.listing_plan
    k, n = t.shape[:2]
    none = np.empty((0, n), dtype=np.int64)
    cA = cB = witness = None
    if colours is not None:
        cA, cB = (np.asarray(c, dtype=np.int64) for c in colours)
        inv, invB = list(zip(inv, cA.tolist())), list(zip(inv, cB.tolist()))
        if Counter(inv) != Counter(invB):
            return none
    if cA is not None and not np.array_equal(cA, cB):
        witness = first_bijection(plan, t, _classes(inv, invB), (cA, cB))
        if witness is None:
            return none
    group = np.arange(n, dtype=np.int64)[None, :]
    for level in reversed(_transversals(plan, t.reshape(k, n * n), _classes(inv, inv), cA)):
        group = level[:, group].reshape(-1, n)  # t o g for t in level, g below
    if witness is not None:
        group = witness[group]
    return group[np.lexsort(group.T[::-1])]
