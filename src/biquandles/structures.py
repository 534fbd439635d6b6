"""Biquandle structures on quandles and the structure <-> biquandle
correspondence.

A structure on a quandle Q is a family {beta_y} of automorphisms of Q such
that beta_{beta_y(x*y)} beta_y = beta_{beta_x(y)} beta_x for all x, y and
y -> beta_y(y) is a bijection.  It produces the biquandle with
x u y = beta_y(x*y) and x o y = beta_y(x), and every biquandle arises this
way from its associated quandle.

Under the correspondence, structure-1 is the exchange identity (3c) and
"beta_y is an automorphism" the automorphism half of
_kernels.exchange_holds, and they are checked the same way: once per
distinct beta, and once per distinct quadruple of betas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._kernels import _columns, automorphism_mask, first_disagreement
from ._search import preserves_tables
from .core import (
    AxiomReport,
    FiniteBiquandle,
    FiniteQuandle,
    Permutation,
    as_table,
    associated_quandle,
    from_json_text,
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

    @classmethod
    def _proven(cls, base, betas):
        """The structure of a family its caller has proved to be one (every
        beta an automorphism, both structure conditions), without
        validate_structure."""
        s = object.__new__(cls)
        object.__setattr__(s, "base", base)
        object.__setattr__(s, "betas", betas)
        return s

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
        return from_json_text(s, BiquandleStructure.from_dict)


def _image_rows(q: FiniteQuandle, maps):
    """(rows, ids, distinct, ok): the maps as one (k, q.n) int64 array of
    image rows, the rows numbered by _kernels._columns, and the mask of the
    maps that are automorphisms of q, checked once per distinct row.  A
    member that is not a Permutation of degree q.n gets the identity row
    and a False entry."""
    n = q.n
    fits = np.array([isinstance(m, Permutation) and m.n == n for m in maps], dtype=bool)
    rows = np.array([m.images if f else range(n) for m, f in zip(maps, fits)], dtype=np.int64).reshape(len(maps), n)
    ids, distinct = _columns(rows.T)
    ok = fits & automorphism_mask(distinct, q.table, q._side().generators[1]).take(ids)
    return rows, ids, distinct, ok


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
    B, ids, distinct, ok = _image_rows(q, betas)
    if not ok.all():
        return AxiomReport.from_violations(("beta-not-automorphism", (y,)) for y in np.flatnonzero(~ok).tolist())
    ar = np.arange(q.n)
    # at (x, y): beta_{beta_y(x*y)} beta_y == beta_{beta_x(y)} beta_x
    hit = first_disagreement(ids, distinct, B.ravel().take(q.table + ar * q.n), ar, B, ar[:, None])
    bad = [("structure-1", hit)] if hit else []
    diag = B.ravel()[::q.n + 1]  # beta_y(y)
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
    """Recover the structure over the associated quandle: beta_y = over column y.

    b's axioms prove it a structure, so validate_structure is not run: by b2
    each over column is a bijection, by (3b) an automorphism of the
    associated quandle, and (3c) is structure-1 (_kernels.exchange_holds;
    beta_y(x*y) = x u y, beta_x(y) = y o x).  Structure-2: y o y = z o z
    for y != z would give S(y, y) = S(z, z) for the pair map S, by b1,
    against b2."""
    q = associated_quandle(b)
    betas = tuple(Permutation._proven(tuple(r)) for r in b.over.T.tolist())
    return BiquandleStructure._proven(q, betas)
