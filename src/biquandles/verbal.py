"""Free-group word engine and the classification of operations given by
fixed words that define (bi)quandles uniformly on every group.

Words are reduced syllable sequences ((letter, exponent), ...) over
single-letter names; identities between words are decided by comparing
reduced normal forms, which is exact in a free group.  The CLI syntax is
whitespace-separated syllables with caret exponents, e.g. "y^-2 x y^1".
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .core import FiniteQuandle, FiniteBiquandle
from .errors import DomainError, MalformedInput
from .groups import FiniteGroup

FreeWord = tuple  # of (letter, exponent) syllables, always reduced

_SYLLABLE = re.compile(r"^([a-z])(?:\^(-?\d+))?$")

# ceilings on one call's work: power keeps a conjugate's c outside v^k,
# so checking y^e x y^-e costs the same at every e (0.07 ms), but other
# shapes reduce v^k over k copies of v, linear in e (checking y^e x y^e:
# 2.5 ms at 10**3, 29 ms at 10**4; 2 vCPUs); a word's table takes about
# 2 log2 e gathers per syllable (y^e x y^e on S4: 0.09 ms at 10**3 and at
# 10**4); enumerating takes 3.4 s for pairs at bound 4, 1.5 s for single
# words at 32
MAX_EXPONENT = 10**4
MAX_BIRACK_BOUND = 4
MAX_QUANDLE_WORD_BOUND = 32


def _bounded(w: FreeWord) -> FreeWord:
    """The reduced word w, or MalformedInput at an exponent above MAX_EXPONENT."""
    for let, exp in w:
        if abs(exp) > MAX_EXPONENT:
            raise MalformedInput(f"exponent {exp} of {let} is above the ceiling of {MAX_EXPONENT}")
    return w


def word(syllables) -> FreeWord:
    """Build a reduced word from raw (letter, exponent) pairs; an exponent
    of the reduced word above MAX_EXPONENT is malformed input."""
    for let, exp in syllables:
        if not isinstance(exp, int) or exp == 0:
            raise MalformedInput(f"zero or non-integer exponent in syllable ({let}, {exp})")
        if not (isinstance(let, str) and len(let) == 1):
            raise MalformedInput(f"letters must be single characters, got {let!r}")
    return _bounded(reduce_word(tuple(syllables)))


def parse_word(text) -> FreeWord:
    """Parse CLI syntax: syllables like x, y^3, x^-1 separated by spaces.

    The empty string denotes the identity word.  An exponent of the
    reduced word above MAX_EXPONENT is malformed input."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for tok in text.split():
        m = _SYLLABLE.match(tok)
        if not m:
            raise MalformedInput(f"bad syllable {tok!r}")
        try:
            exp = int(m.group(2) or 1)
        except ValueError:  # more digits than int() converts
            raise MalformedInput(f"exponent of {m.group(1)} is above the ceiling of {MAX_EXPONENT}") from None
        if exp == 0:
            raise MalformedInput(f"zero exponent in {tok!r}")
        out.append((m.group(1), exp))
    return _bounded(reduce_word(tuple(out)))


def format_word(w: FreeWord) -> str:
    if not w:
        return ""
    return " ".join(let if exp == 1 else f"{let}^{exp}" for let, exp in w)


def reduce_word(w) -> FreeWord:
    """Merge adjacent same-letter syllables and drop zero exponents."""
    stack = []
    for let, exp in w:
        if exp == 0:
            continue
        if stack and stack[-1][0] == let:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged != 0:
                stack.append((let, merged))
        else:
            stack.append((let, exp))
    return tuple(stack)


def multiply(a: FreeWord, b: FreeWord) -> FreeWord:
    return reduce_word(tuple(a) + tuple(b))


def invert(w: FreeWord) -> FreeWord:
    return tuple((let, -exp) for let, exp in reversed(w))


def power(w: FreeWord, k: int) -> FreeWord:
    """w^k, reduced.  w splits as c v c^-1, c as many whole syllables as
    cancel, and w^k = c v^k c^-1: v^k is one syllable when v is, else one
    reduce_word over k copies of v, which merge only where copies meet."""
    if k < 0:
        return power(invert(w), -k)
    w = reduce_word(w)
    if not w or k == 0:
        return ()
    i = 0  # reduced, so the pairs stop before the middle
    while w[i][0] == w[-1 - i][0] and w[i][1] == -w[-1 - i][1]:
        i += 1
    c, v = w[:i], w[i:len(w) - i]
    vk = ((v[0][0], v[0][1] * k),) if len(v) == 1 else reduce_word(v * k)
    return c + vk + invert(c)


def substitute(w: FreeWord, mapping) -> FreeWord:
    """Replace each letter by a word and reduce.

    mapping: dict letter -> FreeWord; letters absent from the mapping are
    kept as themselves."""
    out: FreeWord = ()
    for let, exp in w:
        rep = mapping.get(let, ((let, 1),))
        out = multiply(out, power(rep, exp))
    return out


def evaluate_word(w: FreeWord, g: FiniteGroup, assignment) -> int:
    """Evaluate a word in a finite group under letter -> element index."""
    out = g.e
    for let, exp in w:
        if let not in assignment:
            raise DomainError(f"letter {let!r} has no assignment")
        out = g.op(out, g.power(assignment[let], exp))
    return out


X: FreeWord = (("x", 1),)
Y: FreeWord = (("y", 1),)
Z: FreeWord = (("z", 1),)


def _conjugate_shape(w: FreeWord):
    """Decompose as y^a x^e y^b with e = +-1; None when not of that shape.

    This is the shape forced by first-argument bijectivity on every group.
    """
    if len(w) == 1:
        let, exp = w[0]
        if let == "x" and exp in (1, -1):
            return 0, exp, 0
        return None
    if len(w) == 2:
        (l1, e1), (l2, e2) = w
        if l1 == "y" and l2 == "x" and e2 in (1, -1):
            return e1, e2, 0
        if l1 == "x" and l2 == "y" and e1 in (1, -1):
            return 0, e1, e2
        return None
    if len(w) == 3:
        (l1, e1), (l2, e2), (l3, e3) = w
        if l1 == "y" and l2 == "x" and l3 == "y" and e2 in (1, -1):
            return e1, e2, e3
    return None


def shape_word(a: int, e: int, b: int) -> FreeWord:
    return reduce_word((("y", a), ("x", e), ("y", b)))


def _r2_identity_holds(w: FreeWord) -> bool:
    """(x*y)*z == (x*z)*(y*z) as reduced words in F(x, y, z)."""
    def star(u, v):
        return substitute(w, {"x": u, "y": v})

    return star(star(X, Y), Z) == star(star(X, Z), star(Y, Z))


def is_verbal_quandle_word(w: FreeWord) -> bool:
    """True when x*y = w(x, y) is a quandle operation on every group:
    bijective shape, self-distributivity in the free group, and w(x,x) = x."""
    if _conjugate_shape(w) is None:
        return False
    if not _r2_identity_holds(w):
        return False
    return substitute(w, {"y": X}) == X


def classify_verbal_quandle(w: FreeWord):
    """Match against the two uniform families.

    Returns ("conj", n) for y^{-n} x y^n, ("core", None) for y x^{-1} y,
    else None; consistent with is_verbal_quandle_word."""
    shape = _conjugate_shape(w)
    if shape is None:
        return None
    a, e, b = shape
    if e == 1 and a == -b:
        return ("conj", b)
    if e == -1 and a == 1 and b == 1:
        return ("core", None)
    return None


def _biquandle_identities_hold(u: FreeWord, v: FreeWord) -> bool:
    """The three exchange identities with x u y = v(x,y), x o y = u(x,y)."""
    def under(p, q):
        return substitute(v, {"x": p, "y": q})

    def over(p, q):
        return substitute(u, {"x": p, "y": q})

    a3a = under(under(X, Y), under(Z, Y)) == under(under(X, Z), over(Y, Z))
    a3b = over(under(X, Y), under(Z, Y)) == under(over(X, Z), over(Y, Z))
    a3c = over(over(X, Y), over(Z, Y)) == over(over(X, Z), under(Y, Z))
    return a3a and a3b and a3c


def is_verbal_birack(u: FreeWord, v: FreeWord) -> bool:
    """True when x o y = u(x,y), x u y = v(x,y) is a biquandle on every
    group: both words of bijective shape, the three exchange identities hold
    in F(x,y,z), and the diagonal words u(x,x), v(x,x) coincide."""
    if _conjugate_shape(u) is None or _conjugate_shape(v) is None:
        return False
    if not _biquandle_identities_hold(u, v):
        return False
    return substitute(u, {"y": X}) == substitute(v, {"y": X})


# Family 8's second word is y^-1 x y^-1 (positive core-like middle letter):
# the widely-quoted variant with x^-1 in the middle fails both the diagonal
# axiom and exchange identity (a) on any nonabelian group, e.g. S3.
_FIXED_FAMILIES = {
    3: (shape_word(-1, 1, -1), shape_word(0, -1, 0)),
    4: (shape_word(1, -1, 1), shape_word(0, 1, 0)),
    5: (shape_word(0, 1, -2), shape_word(1, -1, -1)),
    6: (shape_word(-2, 1, 0), shape_word(-1, -1, 1)),
    7: (shape_word(0, 1, 0), shape_word(1, -1, 1)),
    8: (shape_word(0, -1, 0), shape_word(-1, 1, -1)),
}

# Verbal biquandle pairs outside the eight families: the constant-inversion
# pair and the over/under swaps of families 5 and 6.  All three verify on
# every group; they fall in degenerate branches of the exponent case split.
EXTRA_VERBAL_BIQUANDLES = (
    (shape_word(0, -1, 0), shape_word(0, -1, 0)),
    (shape_word(1, -1, -1), shape_word(0, 1, -2)),
    (shape_word(-1, -1, 1), shape_word(-2, 1, 0)),
)


def classify_verbal_biquandle(u: FreeWord, v: FreeWord):
    """Exact pattern match against the eight uniform families.

    Returns (family id 1..8, parameter or None), or None.  Families 1 and 2
    carry an integer parameter (the conjugating exponent); the parameter-0
    member (x, x) is reported as family 1.
    """
    su = _conjugate_shape(u)
    sv = _conjugate_shape(v)
    if su is None or sv is None:
        return None
    if u == X and sv[1] == 1 and sv[0] == -sv[2]:
        return (1, sv[0])
    if v == X and su[1] == 1 and su[0] == -su[2] and u != X:
        return (2, su[0])
    for fam, (fu, fv) in _FIXED_FAMILIES.items():
        if u == fu and v == fv:
            return (fam, None)
    return None


def _shape_words(bound: int, ceiling: int):
    """The words y^a x^e y^b with |a|, |b| <= bound and e = +-1, sorted;
    DomainError unless 0 <= bound <= ceiling."""
    if bound < 0:
        raise DomainError("bound must be >= 0")
    if bound > ceiling:
        raise DomainError(f"bound {bound} is above the ceiling of {ceiling}")
    rng = range(-bound, bound + 1)
    return sorted({shape_word(a, e, b) for a in rng for b in rng for e in (1, -1)})


def enumerate_verbal_biracks(bound: int):
    """All accepted pairs u = y^a x^e y^b, v = y^c x^m y^d with exponents in
    [-bound, bound], sorted for a deterministic listing; DomainError above
    MAX_BIRACK_BOUND."""
    words = _shape_words(bound, MAX_BIRACK_BOUND)
    return [(u, v) for u, v in itertools.product(words, repeat=2) if is_verbal_birack(u, v)]


def enumerate_verbal_quandle_words(bound: int):
    """All accepted words y^a x^e y^b with |a|, |b| <= bound, sorted;
    DomainError above MAX_QUANDLE_WORD_BOUND."""
    return [w for w in _shape_words(bound, MAX_QUANDLE_WORD_BOUND) if is_verbal_quandle_word(w)]


def _word_table(w: FreeWord, g: FiniteGroup):
    """The n x n table of w(x, y) over all pairs of elements: each syllable
    is one gather mul[out, power], where power maps each element to its
    power, built by square-and-multiply on element maps (about 2 log2|e|
    gathers), a negative exponent taking powers of g.inv."""
    out = np.full((g.n, g.n), g.e, dtype=np.int64)
    for let, exp in w:
        if let not in ("x", "y"):
            raise DomainError(f"letter {let!r} has no assignment")
        power = np.full(g.n, g.e, dtype=np.int64)
        square = np.arange(g.n) if exp > 0 else g.inv  # x -> x^(+-2^i)
        k = abs(exp)
        while k:
            if k & 1:
                power = g.mul[power, square]
            square = g.mul[square, square]
            k >>= 1
        out = g.mul[out, power[:, None] if let == "x" else power]
    return out


def verbal_quandle_table(w: FreeWord, g: FiniteGroup) -> FiniteQuandle:
    """Instantiate x*y = w(x, y) on a concrete group."""
    return FiniteQuandle(_word_table(w, g))


def verbal_biquandle_tables(u: FreeWord, v: FreeWord, g: FiniteGroup) -> FiniteBiquandle:
    """Instantiate x o y = u(x,y), x u y = v(x,y) on a concrete group."""
    return FiniteBiquandle(_word_table(v, g), _word_table(u, g))
