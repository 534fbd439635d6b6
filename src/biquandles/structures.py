"""Biquandle structures on quandles and the structure <-> biquandle
correspondence.

A structure on a quandle Q is a family {beta_y} of automorphisms of Q such
that beta_{beta_y(x*y)} beta_y = beta_{beta_x(y)} beta_x for all x, y and
y -> beta_y(y) is a bijection.  It produces the biquandle with
x u y = beta_y(x*y) and x o y = beta_y(x), and every biquandle arises this
way from its associated quandle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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


def validate_structure(q: FiniteQuandle, betas) -> AxiomReport:
    """Check the automorphism property and both structure conditions."""
    betas = tuple(betas)
    if len(betas) != q.n:
        raise MalformedInput(f"need {q.n} automorphisms, got {len(betas)}")
    bad = []
    for y, b in enumerate(betas):
        if not preserves_tables(b.images, [q.table]):
            bad.append(("beta-not-automorphism", (y,)))
    if bad:
        return AxiomReport.from_violations(bad)
    for x in range(q.n):
        bx = betas[x]
        for y in range(q.n):
            by = betas[y]
            left = betas[by(q.op(x, y))] * by
            right = betas[bx(y)] * bx
            if left != right:
                bad.append(("structure-1", (x, y)))
                break
        else:
            continue
        break
    diag = [betas[y](y) for y in range(q.n)]
    if len(set(diag)) != q.n:
        seen = {}
        for y, v in enumerate(diag):
            if v in seen:
                bad.append(("structure-2", (seen[v], y)))
                break
            seen[v] = y
    return AxiomReport.from_violations(bad)


def constant_structure(q: FiniteQuandle, f: Permutation) -> BiquandleStructure:
    """The structure with beta_y = f for every y."""
    if not preserves_tables(f.images, [q.table]):
        raise DomainError("f is not an automorphism of the base quandle")
    return BiquandleStructure(q, tuple(f for _ in range(q.n)))


def inverse_inner_structure(q: FiniteQuandle) -> BiquandleStructure:
    """The non-constant structure beta_x = S_x^{-1}."""
    return BiquandleStructure(q, tuple(q.sx(x).inverse() for x in range(q.n)))


def biquandle_from_structure(s: BiquandleStructure) -> FiniteBiquandle:
    """x u y = beta_y(x*y),  x o y = beta_y(x)."""
    q = s.base
    n = q.n
    B = s.beta_arrays()  # B[y] = images of beta_y
    under = np.empty((n, n), dtype=np.int64)
    over = np.empty((n, n), dtype=np.int64)
    for y in range(n):
        under[:, y] = B[y][q.table[:, y]]
        over[:, y] = B[y]
    return FiniteBiquandle(under, over)


def structure_of_biquandle(b: FiniteBiquandle) -> BiquandleStructure:
    """Recover the structure over the associated quandle: beta_y = over column y."""
    q = associated_quandle(b)
    betas = tuple(Permutation(tuple(int(v) for v in b.over[:, y])) for y in range(b.n))
    return BiquandleStructure(q, betas)
