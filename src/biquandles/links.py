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

Text format, one element per line (# starts a comment):
    X + a b c d     classical, sign, in_under in_over out_under out_over
    X - a b c d
    V a b c d       virtual, in1 in2 out1 out2
    = a b           closure splice
"""

from __future__ import annotations

from dataclasses import dataclass

import itertools

from .core import FiniteBiquandle, FiniteQuandle, biquandle_of_quandle
from .errors import MalformedInput


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
        succ = {}
        for c in self.crossings:
            if isinstance(c, Classical):
                succ[c.in_under] = c.out_under
                succ[c.in_over] = c.out_over
            else:
                succ[c.in1] = c.out1
                succ[c.in2] = c.out2
        for out_arc, in_arc in self.closures:
            succ[out_arc] = in_arc
        self.successor = succ

    @property
    def arc_count(self):
        return len(self.arcs)

    def components(self) -> int:
        seen = set()
        comps = 0
        for a in self.arcs:
            if a in seen:
                continue
            comps += 1
            while a not in seen:
                seen.add(a)
                a = self.successor[a]
        return comps


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
    try:
        return VirtualLinkDiagram(crossings, closures)
    except MalformedInput as e:
        raise MalformedInput(str(e)) from None


def _propagate(diagram, b: FiniteBiquandle, color):
    """Forward/backward constraint propagation; False on contradiction."""
    changed = True

    def assign(arc, value):
        nonlocal changed
        old = color.get(arc)
        if old is None:
            color[arc] = value
            changed = True
            return True
        return old == value

    while changed:
        changed = False
        for c in diagram.crossings:
            if isinstance(c, Virtual):
                pairs = ((c.in1, c.out1), (c.in2, c.out2))
                for p, q in pairs:
                    if p in color and not assign(q, color[p]):
                        return False
                    if q in color and not assign(p, color[q]):
                        return False
                continue
            if c.sign > 0:
                u_in, o_in = c.in_under, c.in_over
                u_out, o_out = c.out_under, c.out_over
            else:
                u_in, o_in = c.out_under, c.out_over
                u_out, o_out = c.in_under, c.in_over
            # relations: o_out = o_in o^{-1} u_in,  u_out = u_in u o_out
            if u_in in color and o_in in color:
                x, y = color[u_in], color[o_in]
                v = int(b.over_inv[y, x])
                if not assign(o_out, v):
                    return False
                if not assign(u_out, int(b.under[x, v])):
                    return False
            if u_out in color and o_out in color:
                uo, v = color[u_out], color[o_out]
                x = int(b.under_inv[uo, v])
                if not assign(u_in, x):
                    return False
                if not assign(o_in, int(b.over[v, x])):
                    return False
            if u_in in color and o_out in color:
                x, v = color[u_in], color[o_out]
                if not assign(o_in, int(b.over[v, x])):
                    return False
                if not assign(u_out, int(b.under[x, v])):
                    return False
        for out_arc, in_arc in diagram.closures:
            if out_arc in color and not assign(in_arc, color[out_arc]):
                return False
            if in_arc in color and not assign(out_arc, color[in_arc]):
                return False
    return True


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
    """Number of proper arc colorings, by DFS with constraint propagation
    on an explicit stack, so deep diagrams do not hit the recursion limit."""
    arcs = diagram.arcs

    def children(color):
        """The propagated colorings giving the first free arc each value."""
        free = next(a for a in arcs if a not in color)
        for v in range(b.n):
            trial = dict(color)
            trial[free] = v
            if _propagate(diagram, b, trial):
                yield trial

    total = 0
    stack = [iter([{}])]  # per open node, an iterator over its untried children
    while stack:
        color = next(stack[-1], None)
        if color is None:
            stack.pop()
        elif len(color) == len(arcs):
            total += _check_full(diagram, b, color)
        else:
            stack.append(children(color))
    return total


def coloring_count_quandle(diagram: VirtualLinkDiagram, q: FiniteQuandle) -> int:
    """Quandle coloring count; over-strand colors pass through crossings."""
    return coloring_count_biquandle(diagram, biquandle_of_quandle(q))


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
