"""Virtual link diagrams and coloring invariants.

A diagram is a set of semi-arcs wired through classical crossings, virtual
crossings, and closure splices.  Every arc occurs exactly once as an input
and once as an output, so strand-following is a permutation whose cycles
are the link components.

Crossing conventions (fixed):
  * positive classical crossing: the under relation is indexed by the
    outgoing over arc,
      under_out = under_in u over_out,   over_out = over_in o^{-1} under_in;
  * negative classical crossing: the same relations read against
    orientation (inputs and outputs swapped),
      under_in = under_out u over_in,    over_in = over_out o^{-1} under_out;
  * virtual crossing: colors pass through unchanged (out1 = in1, out2 = in2);
  * closure splice (= a b): the end of arc a joins the start of arc b, so
    their colors agree.
With this convention a kink forces its loop arc to carry x u x = x o x for
the through color x, so one-sided curls pin exactly one coloring per color
of the strand, and on trivial-over biquandles the under relation collapses
to the familiar quandle rule under_out = under_in * over_in.

Counting compiles the diagram to integers: each class of arcs joined by
virtual crossings and splices is one color variable (an orbit of
_search.walk_orbits over the continuation map and its reverse), and each
classical crossing one (u_in, o_in, u_out, o_out) tuple of variables.  A
plan is fixed once per count.  It branches fail-first, as in bucket
elimination: the next variable to branch on completes a forcing pair of
some crossing with a variable already known, so a closed 2-braid branches
on two variables whatever its arcs are called.  Which variables are known
after i branches depends only on the diagram, so the plan records the
crossings each branch fires and a depth-first search replays them at every
node; the colors live in one int list that no backtrack has to undo.  A
count whose n^(branch variables) leaves exceed MAX_COLOR_NODES is refused
before it starts.

Text format, one element per line (# starts a comment):
    X + a b c d     classical, sign, in_under in_over out_under out_over
    X - a b c d
    V a b c d       virtual, in1 in2 out1 out2
    = a b           closure splice
"""

from __future__ import annotations

from dataclasses import dataclass

import itertools

import numpy as np

from ._search import walk_orbits
from .core import FiniteBiquandle, FiniteQuandle
from .errors import DomainError, MalformedInput

# the most leaves a coloring search may have, n ** (branch variables): at
# about a microsecond a node, 10**8 leaves are minutes of search
MAX_COLOR_NODES = 10**8


@dataclass(frozen=True)
class Classical:
    sign: int  # +1 or -1
    in_under: str
    in_over: str
    out_under: str
    out_over: str


@dataclass(frozen=True)
class Virtual:
    in1: str
    in2: str
    out1: str
    out2: str


class VirtualLinkDiagram:
    """Validated incidence structure of semi-arcs."""

    def __init__(self, crossings, closures):
        self.crossings = tuple(crossings)
        self.closures = tuple(tuple(c) for c in closures)
        inputs = []
        outputs = []
        for c in self.crossings:
            if isinstance(c, Classical):
                inputs += [c.in_under, c.in_over]
                outputs += [c.out_under, c.out_over]
            elif isinstance(c, Virtual):
                inputs += [c.in1, c.in2]
                outputs += [c.out1, c.out2]
            else:
                raise MalformedInput(f"unknown crossing {c!r}")
        for out_arc, in_arc in self.closures:
            inputs.append(out_arc)
            outputs.append(in_arc)
        arcs = sorted(set(inputs) | set(outputs))
        for name, used in (("input", inputs), ("output", outputs)):
            seen = set()
            for a in used:
                if a in seen:
                    raise MalformedInput(f"arc {a!r} used twice as an {name}")
                seen.add(a)
            missing = [a for a in arcs if a not in seen]
            if missing:
                raise MalformedInput(f"arc {missing[0]!r} never used as an {name}")
        self.arcs = arcs
        self.arc_index = {a: i for i, a in enumerate(arcs)}
        # strand successor: arc consumed here -> arc produced on the same strand
        self.successor = dict(zip(inputs, outputs))

    @property
    def arc_count(self):
        return len(self.arcs)

    def components(self) -> int:
        nxt = [self.arc_index[self.successor[a]] for a in self.arcs]
        return len(walk_orbits(len(nxt), (nxt,)))


def parse_diagram(text) -> VirtualLinkDiagram:
    """Parse the line-oriented format; errors carry line numbers."""
    crossings = []
    closures = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "X":
                sign, a, b, c, d = parts[1:]
                if sign not in ("+", "-"):
                    raise ValueError(f"bad sign {sign!r}")
                crossings.append(Classical(1 if sign == "+" else -1, a, b, c, d))
            elif kind == "V":
                a, b, c, d = parts[1:]
                crossings.append(Virtual(a, b, c, d))
            elif kind == "=":
                a, b = parts[1:]
                closures.append((a, b))
            else:
                raise ValueError(f"unknown record {kind!r}")
        except ValueError as e:
            raise MalformedInput(f"line {ln}: {e}") from None
    return VirtualLinkDiagram(crossings, closures)


def _relations(diagram):
    """Per color variable, the (u_in, o_in, u_out, o_out) tuples of the
    classical crossings it takes part in, read against orientation at a
    negative crossing.  The variables are the classes of arcs joined by
    virtual crossings and splices, numbered by first arc in sorted order:
    the orbits of the continuation map nxt (input -> output there) and its
    reverse.  nxt is no permutation, since an arc ending at a classical
    crossing maps to itself and an arc spliced into it maps there too; but
    each arc is an output once, so it has at most one other predecessor and
    the reverse is a map."""
    index = diagram.arc_index
    nxt = list(range(diagram.arc_count))
    ends = []
    for c in diagram.crossings:
        if isinstance(c, Virtual):
            nxt[index[c.in1]] = index[c.out1]
            nxt[index[c.in2]] = index[c.out2]
        elif c.sign > 0:
            ends.append((c.in_under, c.in_over, c.out_under, c.out_over))
        else:
            ends.append((c.out_under, c.out_over, c.in_under, c.in_over))
    for out_arc, in_arc in diagram.closures:
        nxt[index[out_arc]] = index[in_arc]
    rev = list(range(len(nxt)))
    for a, b in enumerate(nxt):
        if a != b:
            rev[b] = a
    classes = walk_orbits(len(nxt), (nxt, rev))
    var = [0] * len(nxt)
    for v, orbit in enumerate(classes):
        for a in orbit:
            var[a] = v
    watch = [[] for _ in classes]
    for e in ends:
        rel = tuple(var[index[a]] for a in e)
        for v in set(rel):
            watch[v].append(rel)
    return watch


def _plan(watch):
    """(order, steps): the variables a coloring search branches on, and per
    branch the crossings it fires, in firing order.  Each next branch
    variable is a free variable that completes a forcing pair (u_in, o_in),
    (u_out, o_out) or (u_in, o_out) of some crossing together with a known
    variable, the one found last; else the lowest free variable at both
    ends of a forcing pair, as at a kink; else the lowest free variable.
    A crossing fires at the first scan that finds one of its forcing pairs
    known, as the step (mode, a, b, c, d, new): mode is the index of that
    pair, and new the (position, variable) pairs it colors first, whose
    crossings are scanned in turn."""
    known = [False] * len(watch)
    fired = set()
    order = []
    steps = []
    # variables found to complete a forcing pair, on top of those that
    # complete one alone, lowest first
    pending = sorted(
        {x for rels in watch for a, b, c, d in rels for x, y in ((a, b), (c, d), (a, d)) if x == y}, reverse=True
    )
    low = 0
    while True:
        while pending and known[pending[-1]]:
            pending.pop()
        if pending:
            v = pending.pop()
        else:
            while low < len(watch) and known[low]:
                low += 1
            if low == len(watch):
                return order, steps
            v = low
        order.append(v)
        known[v] = True
        fires = []
        queue = [v]
        for var in queue:
            for rel in watch[var]:
                if rel in fired:
                    continue
                pairs = ((rel[0], rel[1]), (rel[2], rel[3]), (rel[0], rel[3]))
                mode = next((m for m, (x, y) in enumerate(pairs) if known[x] and known[y]), None)
                if mode is None:
                    for x, y in pairs:
                        if known[x] != known[y]:
                            pending.append(y if known[x] else x)
                    continue
                fired.add(rel)
                new = []
                for p, x in enumerate(rel):
                    if not known[x]:
                        known[x] = True
                        new.append((p, x))
                        queue.append(x)
                fires.append((mode, *rel, tuple(new)))
        steps.append(fires)


def _count(diagram, n, under, over, under_inv, over_inv) -> int:
    """Colorings of the diagram by the n x n operation tables, by a DFS on
    an explicit stack.  A node of depth i colors order[i] and replays
    steps[i]: since o_out = o_in o^{-1} u_in and u_out = u_in u o_out,
    (u_in, o_in) gives o_out, (u_out, o_out) gives u_in, and (u_in, o_out)
    the rest.  A node reads only variables colored at its depth or above,
    so nothing is undone on backtrack.  Raises DomainError when the search
    could have more than MAX_COLOR_NODES leaves."""
    watch = _relations(diagram)
    order, steps = _plan(watch)
    depth = len(order)
    if n**depth > MAX_COLOR_NODES:
        raise DomainError(
            f"coloring search branching on {depth} variables with {n} colors has "
            f"up to {n}^{depth} leaves, more than the {MAX_COLOR_NODES} allowed"
        )
    u, o, ui, oi = (t.tolist() for t in (under, over, under_inv, over_inv))
    color = [0] * len(watch)
    total = 0
    tried = [0] * (depth + 1)  # per open node: the next value to try
    i = 0
    while i >= 0:
        value = tried[i]
        if i == depth or value == n:  # a node with no free variable is a coloring
            total += i == depth
            tried[i] = 0
            i -= 1
            continue
        tried[i] = value + 1
        color[order[i]] = value
        for mode, a, b, c, d, new in steps[i]:
            if mode == 0:
                x = color[a]
                w = oi[color[b]][x]
            elif mode == 1:
                w = color[d]
                x = ui[color[c]][w]
            else:
                x, w = color[a], color[d]
            out = (x, o[w][x], u[x][w], w)
            for p, var in new:
                color[var] = out[p]
            if (color[a], color[b], color[c], color[d]) != out:
                break
        else:
            i += 1
    return total


def _check_full(diagram, b: FiniteBiquandle, color) -> bool:
    for c in diagram.crossings:
        if isinstance(c, Virtual):
            if color[c.out1] != color[c.in1] or color[c.out2] != color[c.in2]:
                return False
            continue
        if c.sign > 0:
            u_in, o_in, u_out, o_out = c.in_under, c.in_over, c.out_under, c.out_over
        else:
            u_in, o_in, u_out, o_out = c.out_under, c.out_over, c.in_under, c.in_over
        x, y = color[u_in], color[o_in]
        v = color[o_out]
        if b.over[v, x] != y or color[u_out] != b.under[x, v]:
            return False
    return all(color[p] == color[q] for p, q in diagram.closures)


def coloring_count_biquandle(diagram: VirtualLinkDiagram, b: FiniteBiquandle) -> int:
    """Number of proper arc colorings, by DFS replaying a compiled plan."""
    return _count(diagram, b.n, b.under, b.over, b.under_inv, b.over_inv)


def coloring_count_quandle(diagram: VirtualLinkDiagram, q: FiniteQuandle) -> int:
    """Quandle coloring count; over-strand colors pass through crossings."""
    trivial = np.broadcast_to(np.arange(q.n)[:, None], (q.n, q.n))
    return _count(diagram, q.n, q.table, trivial, q.tinv, trivial)


def coloring_count_bruteforce(diagram: VirtualLinkDiagram, b: FiniteBiquandle) -> int:
    """Exhaustive |B|^arcs oracle; only sensible for few arcs."""
    if diagram.arc_count > 8:
        raise MalformedInput("brute-force oracle capped at 8 arcs")
    total = 0
    for combo in itertools.product(range(b.n), repeat=diagram.arc_count):
        color = dict(zip(diagram.arcs, combo))
        if _check_full(diagram, b, color):
            total += 1
    return total


def unknot() -> VirtualLinkDiagram:
    return parse_diagram("= a a")


def unlink(k) -> VirtualLinkDiagram:
    lines = [f"= a{i} a{i}" for i in range(k)]
    return parse_diagram("\n".join(lines))


def kinked_unknot(sign="+") -> VirtualLinkDiagram:
    return parse_diagram(f"X {sign} a b c d\n= c b\n= d a")


def hopf_link() -> VirtualLinkDiagram:
    return parse_diagram("X + a1 b1 a2 b2\nX + b2 a2 b1 a1")


def trefoil() -> VirtualLinkDiagram:
    return parse_diagram(
        "X + x1 y1 u1 v1\n"
        "X + v1 u1 u2 v2\n"
        "X + v2 u2 u3 v3\n"
        "= v3 x1\n"
        "= u3 y1"
    )


def virtual_hopf() -> VirtualLinkDiagram:
    """One positive classical and one virtual crossing, two components.

    At the classical crossing the under strand runs b -> c and the over
    strand d -> a, so proper colorings satisfy c = b u a and d = a o b; the
    virtual crossing identifies d with a and c with b.
    """
    return parse_diagram("X + b d c a\nV a c d b")


def builtin_diagrams():
    """Named validated diagrams used across the test corpus."""
    return {
        "unknot": unknot(),
        "unlink2": unlink(2),
        "kink_pos": kinked_unknot("+"),
        "kink_neg": kinked_unknot("-"),
        "hopf": hopf_link(),
        "trefoil": trefoil(),
        "virtual_hopf": virtual_hopf(),
    }
