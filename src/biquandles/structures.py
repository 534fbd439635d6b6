"""Biquandle structures on quandles and the structure <-> biquandle
correspondence.

A structure on a quandle Q is a family {beta_y} of automorphisms of Q such
that beta_{beta_y(x*y)} beta_y = beta_{beta_x(y)} beta_x for all x, y and
y -> beta_y(y) is a bijection.  It produces the biquandle with
x u y = beta_y(x*y) and x o y = beta_y(x), and every biquandle arises this
way from its associated quandle.

The checks hold a family of k maps as one (k, n) int64 array of image rows
(_aut_stack), test each condition by gathers on the blocks of the
witness walk (_kernels.walk), and report its first witness in C order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._kernels import first_violation, walk
from ._search import preserves_tables
from .core import (
    AxiomReport,
    FiniteBiquandle,
    FiniteQuandle,
    Permutation,
    as_table,
    associated_quandle,
)
from .errors import DomainError, MalformedInput


@dataclass(frozen=True)
class BiquandleStructure:
    """A validated automorphism family over a base quandle."""

    base: FiniteQuandle
    betas: tuple  # tuple of Permutation, indexed by base element

    def __post_init__(self):
        report = validate_structure(self.base, self.betas)
        if not report.passed:
            raise DomainError(f"not a biquandle structure: {report.violations[0]}")

    def beta_arrays(self):
        return np.stack([b.array() for b in self.betas])

    def to_dict(self):
        return {"base": self.base.to_dict(), "betas": [list(b.images) for b in self.betas]}

    @staticmethod
    def from_dict(d):
        try:
            base, betas = d["base"], d["betas"]
        except (KeyError, TypeError):
            raise MalformedInput("structure JSON needs keys 'base' and 'betas'") from None
        q = FiniteQuandle.from_dict(base)
        return BiquandleStructure(q, tuple(Permutation.from_array(b) for b in as_table(betas, "betas")))

    def to_json(self):
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(s):
        try:
            d = json.loads(s)
        except json.JSONDecodeError as e:
            raise MalformedInput(f"bad JSON: {e}") from None
        return BiquandleStructure.from_dict(d)


def _aut_stack(q: FiniteQuandle, maps):
    """(rows, ok): the maps as one (k, q.n) int64 array of image rows and
    the mask of those that are automorphisms of q, f(a*b) = f(a)*f(b),
    checked for all k at once, one row a at a time.  A member that is not
    a Permutation of degree q.n gets the identity row and a False entry."""
    maps = tuple(maps)
    n = q.n
    fits = [isinstance(m, Permutation) and m.n == n for m in maps]
    ident = tuple(range(n))
    rows = np.array([m.images if f else ident for m, f in zip(maps, fits)], dtype=np.int64).reshape(len(maps), n)
    ok = np.array(fits, dtype=bool)
    t, flat = q.table, q.table.ravel()
    rows_n = rows * n
    # one set of buffers for every row a: a fresh (k, n) array per product
    # and row faulted its pages in again each time (140,000 minor faults on
    # the 294 over columns of Hol(R_7))
    left, right, offsets = np.empty((3, len(maps), n), dtype=np.int64)
    same = np.empty((len(maps), n), dtype=bool)
    for a in range(n):
        rows.take(t[a], axis=1, out=left, mode="clip")               # f(a*b)
        np.add(rows_n[:, a, None], rows, out=offsets)
        np.equal(left, flat.take(offsets, out=right, mode="clip"), out=same)  # f(a)*f(b)
        ok &= same.all(axis=1)
    return rows, ok


def _structure_slabs(t, B):
    """The witness walk over (x, y, z): bad[i, z] set where
    beta_{beta_y(x*y)} beta_y and beta_{beta_x(y)} beta_x differ at z, for
    (x, y) = (x[i], y[i]); B[y] is the image row of beta_y."""
    n = len(B)
    flat, tflat = B.ravel(), t.ravel()

    # the products go into walk's buffers, as in the kernels' sweeps
    def rule(x, y, offsets, left, right):
        xy = x * n + y
        B.take(y, axis=0, out=offsets, mode="clip")
        offsets += (flat.take(y * n + tflat.take(xy)) * n)[:, None]  # (beta_y(x*y), beta_y(z))
        flat.take(offsets, out=left, mode="clip")
        B.take(x, axis=0, out=offsets, mode="clip")
        offsets += (flat.take(xy) * n)[:, None]                      # (beta_x(y), beta_x(z))
        return left != flat.take(offsets, out=right, mode="clip")

    return walk(n, n, rule, 3)


def _require_permutation(name, m):
    if not isinstance(m, Permutation):
        raise MalformedInput(f"{name} is not a Permutation: {m!r}")


def validate_structure(q: FiniteQuandle, betas) -> AxiomReport:
    """Check the automorphism property and both structure conditions.

    Reports every beta that is not an automorphism, and otherwise the first
    pair (x, y) breaking structure-1 and the first repeated value of
    y -> beta_y(y).
    """
    betas = tuple(betas)
    if len(betas) != q.n:
        raise MalformedInput(f"need {q.n} automorphisms, got {len(betas)}")
    for y, b in enumerate(betas):
        _require_permutation(f"beta[{y}]", b)
    B, ok = _aut_stack(q, betas)
    if not ok.all():
        return AxiomReport.from_violations(("beta-not-automorphism", (y,)) for y in np.flatnonzero(~ok).tolist())
    bad = []
    hit = first_violation(_structure_slabs(q.table, B))
    if hit:
        bad.append(("structure-1", hit[:2]))
    ar = np.arange(q.n)
    diag = B[ar, ar]
    if len(set(diag.tolist())) != q.n:
        _, first, inverse = np.unique(diag, return_index=True, return_inverse=True)
        y = int(np.argmax(first[inverse] != ar))  # the first y repeating an earlier value
        bad.append(("structure-2", (int(first[inverse[y]]), y)))
    return AxiomReport.from_violations(bad)


def constant_structure(q: FiniteQuandle, f: Permutation) -> BiquandleStructure:
    """The structure with beta_y = f for every y."""
    _require_permutation("f", f)
    if not preserves_tables(f.images, [q.table]):
        raise DomainError("f is not an automorphism of the base quandle")
    return BiquandleStructure(q, tuple(f for _ in range(q.n)))


def inverse_inner_structure(q: FiniteQuandle) -> BiquandleStructure:
    """The non-constant structure beta_x = S_x^{-1}."""
    return BiquandleStructure(q, tuple(Permutation(tuple(r)) for r in q.tinv.T.tolist()))


def biquandle_from_structure(s: BiquandleStructure) -> FiniteBiquandle:
    """x u y = beta_y(x*y),  x o y = beta_y(x)."""
    q = s.base
    B = s.beta_arrays()  # B[y] = images of beta_y
    under = B[np.arange(q.n), q.table]  # under[x, y] = B[y, x*y]
    return FiniteBiquandle(under, np.ascontiguousarray(B.T))


def structure_of_biquandle(b: FiniteBiquandle) -> BiquandleStructure:
    """Recover the structure over the associated quandle: beta_y = over column y."""
    q = associated_quandle(b)
    betas = tuple(Permutation(tuple(r)) for r in b.over.T.tolist())
    return BiquandleStructure(q, betas)
