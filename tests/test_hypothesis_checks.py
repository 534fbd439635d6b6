"""The paper's hypothesis checks on automorphism families: pinned outcomes
and a plain-loop oracle.

PINNED holds the exact error text (or a digest of the result) of every
branch of union_quandle, union_biquandle_general, product_biquandle,
validate_structure and their helpers, recorded before the checks were
rewritten as gathers.  The hypothesis tests compare each check's first
witness with the Python double and triple loops the checks used to be.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles.automorphisms import aut_psi_pairs, quandle_aut
from biquandles.combinators import (
    conj_quandle_of_permgroup,
    holomorph_biquandle,
    involutory_union_check,
    product_biquandle,
    semidirect_biquandle,
    union_biquandle_general,
    union_quandle,
)
from biquandles.core import AxiomReport, Permutation
from biquandles.errors import DomainError, MalformedInput
from biquandles.group_constructions import conj_quandle, dihedral_quandle, trivial_quandle
from biquandles.groups import symmetric_group
from biquandles.structures import BiquandleStructure, validate_structure
from helpers import cycle

Q = {
    "T1": trivial_quandle(1),
    "T2": trivial_quandle(2),
    "T3": trivial_quandle(3),
    "R3": dihedral_quandle(3),
    "R4": dihedral_quandle(4),
    "R5": dihedral_quandle(5),
    "CS3": conj_quandle(symmetric_group(3)),
}
AUT = {name: sorted(quandle_aut(q).elements) for name, q in Q.items()}


def fam(name, idxs):
    """The family of automorphisms of Q[name] with the given indices into
    its sorted automorphism list."""
    return tuple(AUT[name][i] for i in idxs)


def ident(n, k):
    return tuple(Permutation.identity(n) for _ in range(k))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def describe(out):
    if isinstance(out, AxiomReport):
        return f"report {out.passed} {out.violations!r}"
    if isinstance(out, BiquandleStructure):
        return "structure " + _digest(out.base.table, out.beta_arrays())
    if hasattr(out, "under"):
        return "biquandle " + _digest(out.under, out.over)
    if hasattr(out, "table"):
        return "quandle " + _digest(out.table)
    if isinstance(out, tuple):
        return " | ".join(describe(x) for x in out)
    if isinstance(out, list):
        return repr([describe(x) for x in out])
    if isinstance(out, Permutation):
        return repr(out.images)
    return repr(out)


def outcome(thunk):
    try:
        out = thunk()
    except (DomainError, MalformedInput) as e:
        return f"{type(e).__name__}: {e}"
    return describe(out)


T2, T3, R3, R4 = Q["T2"], Q["T3"], Q["R3"], Q["R4"]
SWAP4 = Permutation((1, 0, 2, 3))

CORPUS = {
    # union_quandle
    "uq/plain": lambda: union_quandle(R3, T2),
    "uq/twisted": lambda: union_quandle(T2, T3, (cycle(3),) * 2, (cycle(2),) * 3),
    "uq/sigma-not-aut": lambda: union_quandle(R3, R4, (SWAP4,) * 3),
    "uq/tau-not-aut": lambda: union_quandle(R4, R3, None, (SWAP4,) * 3),
    "uq/sigma-wrong-degree": lambda: union_quandle(T2, T3, (Permutation.identity(3), Permutation.identity(2))),
    "uq/sigma-not-permutation": lambda: union_quandle(T2, T3, (Permutation.identity(3), (0, 1, 2))),
    "uq/lengths": lambda: union_quandle(T2, T3, ident(3, 3)),
    "uq/sigma-conj-hom": lambda: union_quandle(T2, R3, fam("R3", (1, 2)), fam("T2", (0, 0, 0))),
    "uq/tau-conj-hom": lambda: union_quandle(T2, R3, fam("R3", (0, 0)), fam("T2", (0, 0, 1))),
    "uq/condition-1": lambda: union_quandle(T2, T2, fam("T2", (0, 1)), fam("T2", (0, 1))),
    "uq/condition-2": lambda: union_quandle(T2, T2, fam("T2", (0, 1)), fam("T2", (1, 1))),
    "uq/condition-1-r3": lambda: union_quandle(R3, R3, None, (cycle(3),) * 3),
    "uq/condition-2-r3": lambda: union_quandle(R3, R3, (cycle(3),) * 3, None),
    # union_biquandle_general
    "ubg/plain": lambda: union_biquandle_general(T2, T2, fam("T2", (0, 0)), fam("T2", (0, 0))),
    "ubg/swaps": lambda: union_biquandle_general(T2, T2, fam("T2", (1, 1)), fam("T2", (1, 1))),
    "ubg/r3-t3": lambda: union_biquandle_general(R3, T3, fam("T3", (4, 4, 4)), fam("R3", (1, 1, 1))),
    "ubg/phi-not-aut": lambda: union_biquandle_general(R3, R4, (SWAP4,) * 3, ident(3, 4)),
    "ubg/psi-not-aut": lambda: union_biquandle_general(R4, R3, ident(3, 4), (SWAP4,) * 3),
    "ubg/lengths": lambda: union_biquandle_general(T2, T3, ident(3, 2), ident(2, 2)),
    "ubg/phi-conj-hom": lambda: union_biquandle_general(T2, R3, fam("R3", (1, 2)), fam("T2", (0, 0, 0))),
    "ubg/psi-conj-hom": lambda: union_biquandle_general(T2, R3, fam("R3", (0, 0)), fam("T2", (0, 0, 1))),
    "ubg/phi-condition": lambda: union_biquandle_general(T2, T2, fam("T2", (0, 1)), fam("T2", (0, 1))),
    "ubg/psi-condition": lambda: union_biquandle_general(T2, T2, fam("T2", (1, 0)), fam("T2", (0, 1))),
    "ubg/involutory-r3": lambda: involutory_union_check(R3, R3, ident(3, 3), ident(3, 3)),
    "ubg/involutory-t2": lambda: involutory_union_check(T2, T2, (cycle(2),) * 2, (cycle(2),) * 2),
    "ubg/involutory-t3": lambda: involutory_union_check(T3, T3, (cycle(3),) * 3, (cycle(3),) * 3),
    # product_biquandle
    "prod/case-1": lambda: product_biquandle(T2, T2, fam("T2", (0, 0)), fam("T2", (1, 1)), 1),
    "prod/case-2": lambda: product_biquandle(R3, R3, ident(3, 3), fam("R3", (1, 1, 1)), 2),
    "prod/case-2-r3-r5": lambda: product_biquandle(R3, Q["R5"], ident(5, 3), ident(3, 5), 2),
    "prod/phi-not-aut": lambda: product_biquandle(R3, R4, (SWAP4,) * 3, ident(3, 4), 2),
    "prod/psi-not-aut": lambda: product_biquandle(R4, R3, ident(3, 4), (SWAP4,) * 3, 2),
    "prod/psi-wrong-degree": lambda: product_biquandle(T2, T2, ident(2, 2), (Permutation.identity(3),) * 2, 2),
    "prod/lengths": lambda: product_biquandle(T2, T3, ident(3, 3), ident(2, 3), 2),
    "prod/phi-conj-hom": lambda: product_biquandle(T2, R3, fam("R3", (1, 2)), fam("T2", (0, 0, 0)), 1),
    "prod/psi-conj-hom": lambda: product_biquandle(T2, R3, fam("R3", (0, 0)), fam("T2", (0, 0, 1)), 2),
    "prod/case-1-constant": lambda: product_biquandle(T2, T2, fam("T2", (0, 0)), fam("T2", (0, 1)), 1),
    "prod/case-1-condition": lambda: product_biquandle(T2, R3, fam("R3", (0, 3)), fam("T2", (1, 1, 1)), 1),
    "prod/case-2-constant": lambda: product_biquandle(T2, T2, fam("T2", (0, 1)), fam("T2", (0, 0)), 2),
    "prod/case-2-condition": lambda: product_biquandle(T2, T3, fam("T3", (1, 1)), fam("T2", (0, 0, 1)), 2),
    "prod/case-3": lambda: product_biquandle(T2, T2, ident(2, 2), ident(2, 2), 3),
    "prod/semidirect-not-hom": lambda: semidirect_biquandle(R3, R3, (Permutation.identity(3),) * 2 + (cycle(3),)),
    "prod/semidirect-r3-t2": lambda: semidirect_biquandle(R3, T2, (Permutation((0, 2, 1)),) * 2),
    "conj/s3": lambda: conj_quandle_of_permgroup(AUT["R3"]),
    "conj/aut-r5": lambda: conj_quandle_of_permgroup(AUT["R5"]),
    "aut-psi/r3-t2-identity": lambda: aut_psi_pairs(R3, T2, ident(3, 2)),
    "aut-psi/r3-t2-swap": lambda: aut_psi_pairs(R3, T2, (Permutation((0, 2, 1)),) * 2),
    "aut-psi/r3-r3-inner": lambda: aut_psi_pairs(R3, R3, tuple(R3.sx(x) for x in range(3))),
    # validate_structure
    "vs/constant": lambda: validate_structure(R3, (cycle(3),) * 3),
    "vs/inner-inverse-cs3": lambda: validate_structure(Q["CS3"], tuple(Q["CS3"].sx(x).inverse() for x in range(6))),
    "vs/not-aut": lambda: validate_structure(R4, (SWAP4, Permutation.identity(4), SWAP4, Permutation.identity(4))),
    "vs/wrong-degree": lambda: validate_structure(T2, (Permutation.identity(2), Permutation.identity(3))),
    "vs/length": lambda: validate_structure(T2, (Permutation.identity(2),)),
    "vs/structure-1-t3": lambda: validate_structure(T3, fam("T3", (0, 1, 4))),
    "vs/structure-1-r4": lambda: validate_structure(R4, fam("R4", (0, 0, 0, 4))),
    "vs/both-t2": lambda: validate_structure(T2, fam("T2", (0, 1))),
    "vs/both-r4": lambda: validate_structure(R4, fam("R4", (0, 0, 0, 1))),
    "vs/structure-class": lambda: BiquandleStructure(T2, fam("T2", (0, 1))),
    # first witnesses away from the origin
    "deep/phi-conj-hom": lambda: product_biquandle(Q["CS3"], T3, fam("T3", (1, 1, 1, 1, 1, 4)), fam("CS3", (2, 3, 4)), 1),
    "deep/psi-conj-hom": lambda: union_biquandle_general(T3, Q["CS3"], fam("CS3", (4, 4, 4)), fam("T3", (0, 2, 2, 2, 1, 2))),
    "deep/case-1": lambda: product_biquandle(T3, Q["CS3"], fam("CS3", (0, 5, 5)), fam("T3", (4, 4, 4, 4, 4, 4)), 1),
    "deep/case-2": lambda: product_biquandle(T3, T3, fam("T3", (4, 4, 4)), fam("T3", (0, 2, 2)), 2),
    "deep/ubg-phi": lambda: union_biquandle_general(T3, Q["R5"], fam("R5", (0, 14, 0)), fam("T3", (1, 1, 1, 1, 1))),
    "deep/ubg-psi": lambda: union_biquandle_general(R3, T3, fam("T3", (4, 4, 4)), fam("R3", (5, 0, 5))),
    "deep/uq-1": lambda: union_quandle(Q["CS3"], T3, fam("T3", (0,) * 6), fam("CS3", (0, 0, 1))),
    "deep/uq-2": lambda: union_quandle(T3, Q["CS3"], fam("CS3", (1, 0, 0)), fam("T3", (5,) * 6)),
    "deep/vs-both": lambda: validate_structure(Q["CS3"], fam("CS3", (0, 0, 3, 3, 0, 0))),
}
# No family of automorphisms over T2, T3, R3, R4, R3 u T1 or conj(S3)
# satisfies structure-1 but not structure-2, so structure-2 is pinned only
# together with structure-1.

PINNED = {
    'aut-psi/r3-r3-inner': "['(0, 1, 2) | (0, 1, 2)', '(0, 2, 1) | (0, 2, 1)', '(1, 0, 2) | (1, 0, 2)', '(1, 2, 0) | (1, 2, 0)', '(2, 0, 1) | (2, 0, 1)', '(2, 1, 0) | (2, 1, 0)']",
    'aut-psi/r3-t2-identity': "['(0, 1, 2) | (0, 1)', '(0, 1, 2) | (1, 0)', '(0, 2, 1) | (0, 1)', '(0, 2, 1) | (1, 0)', '(1, 0, 2) | (0, 1)', '(1, 0, 2) | (1, 0)', '(1, 2, 0) | (0, 1)', '(1, 2, 0) | (1, 0)', '(2, 0, 1) | (0, 1)', '(2, 0, 1) | (1, 0)', '(2, 1, 0) | (0, 1)', '(2, 1, 0) | (1, 0)']",
    'aut-psi/r3-t2-swap': "['(0, 1, 2) | (0, 1)', '(0, 1, 2) | (1, 0)', '(0, 2, 1) | (0, 1)', '(0, 2, 1) | (1, 0)']",
    'conj/aut-r5': "quandle 50f9549173c38388 | ['(0, 1, 2, 3, 4)', '(0, 2, 4, 1, 3)', '(0, 3, 1, 4, 2)', '(0, 4, 3, 2, 1)', '(1, 0, 4, 3, 2)', '(1, 2, 3, 4, 0)', '(1, 3, 0, 2, 4)', '(1, 4, 2, 0, 3)', '(2, 0, 3, 1, 4)', '(2, 1, 0, 4, 3)', '(2, 3, 4, 0, 1)', '(2, 4, 1, 3, 0)', '(3, 0, 2, 4, 1)', '(3, 1, 4, 2, 0)', '(3, 2, 1, 0, 4)', '(3, 4, 0, 1, 2)', '(4, 0, 1, 2, 3)', '(4, 1, 3, 0, 2)', '(4, 2, 0, 3, 1)', '(4, 3, 2, 1, 0)']",
    'conj/s3': "quandle 850f747ed5c01932 | ['(0, 1, 2)', '(0, 2, 1)', '(1, 0, 2)', '(1, 2, 0)', '(2, 0, 1)', '(2, 1, 0)']",
    'deep/case-1': 'DomainError: case 1 condition fails at (x=0, y=2)',
    'deep/case-2': 'DomainError: case 2 condition fails at (a=0, b=2)',
    'deep/phi-conj-hom': 'DomainError: phi is not a quandle homomorphism into the conjugation quandle: witness (x=0, y=5)',
    'deep/psi-conj-hom': 'DomainError: psi is not a quandle homomorphism into the conjugation quandle: witness (x=1, y=4)',
    'deep/ubg-phi': 'DomainError: union structure condition phi fails at (x1=1, x2=0)',
    'deep/ubg-psi': 'DomainError: union structure condition psi fails at (x1=0, x2=1)',
    'deep/uq-1': 'DomainError: union condition 1 fails at (x=1, y=2, z=2)',
    'deep/uq-2': 'DomainError: union condition 2 fails at (x=1, y=2, z=2)',
    'deep/vs-both': "report False (('structure-1', (1, 5)), ('structure-2', (2, 5)))",
    'prod/case-1': 'biquandle 74d40c5d3f4f2d59',
    'prod/case-1-condition': 'DomainError: case 1 condition fails at (x=0, y=1)',
    'prod/case-1-constant': 'DomainError: case 1 needs a constant psi',
    'prod/case-2': 'biquandle 91dc20a9c6765732',
    'prod/case-2-condition': 'DomainError: case 2 condition fails at (a=0, b=1)',
    'prod/case-2-constant': 'DomainError: case 2 needs a constant phi',
    'prod/case-2-r3-r5': 'biquandle d6e8e5ad185672c3',
    'prod/case-3': 'DomainError: case must be 1 or 2',
    'prod/lengths': 'DomainError: phi must have length |Q1| and psi length |Q2|',
    'prod/phi-conj-hom': 'DomainError: phi is not a quandle homomorphism into the conjugation quandle: witness (x=0, y=1)',
    'prod/phi-not-aut': 'DomainError: phi[0] is not an automorphism of the target quandle',
    'prod/psi-conj-hom': 'DomainError: psi is not a quandle homomorphism into the conjugation quandle: witness (x=0, y=1)',
    'prod/psi-not-aut': 'DomainError: psi[0] is not an automorphism of the target quandle',
    'prod/psi-wrong-degree': 'DomainError: psi[0] is not an automorphism of the target quandle',
    'prod/semidirect-not-hom': 'DomainError: psi is not a quandle homomorphism into the conjugation quandle: witness (x=0, y=1)',
    'prod/semidirect-r3-t2': 'biquandle 2304c562955808ba',
    'ubg/involutory-r3': 'True',
    'ubg/involutory-t2': 'True',
    'ubg/involutory-t3': 'False',
    'ubg/lengths': 'DomainError: phi must have length |Q1| and psi length |Q2|',
    'ubg/phi-condition': 'DomainError: union structure condition phi fails at (x1=0, x2=1)',
    'ubg/phi-conj-hom': 'DomainError: phi is not a quandle homomorphism into the conjugation quandle: witness (x=0, y=1)',
    'ubg/phi-not-aut': 'DomainError: phi[0] is not an automorphism of the target quandle',
    'ubg/plain': 'structure 238f0861a8e96d35',
    'ubg/psi-condition': 'DomainError: union structure condition psi fails at (x1=0, x2=0)',
    'ubg/psi-conj-hom': 'DomainError: psi is not a quandle homomorphism into the conjugation quandle: witness (x=0, y=1)',
    'ubg/psi-not-aut': 'DomainError: psi[0] is not an automorphism of the target quandle',
    'ubg/r3-t3': 'structure 8e72e6210793fbf2',
    'ubg/swaps': 'structure 9abe7d6926ff25e4',
    'uq/condition-1': 'DomainError: union condition 1 fails at (x=0, y=1, z=0)',
    'uq/condition-1-r3': 'DomainError: union condition 1 fails at (x=0, y=0, z=0)',
    'uq/condition-2': 'DomainError: union condition 2 fails at (x=0, y=0, z=0)',
    'uq/condition-2-r3': 'DomainError: union condition 2 fails at (x=0, y=0, z=0)',
    'uq/lengths': 'DomainError: sigma must have length |Q1| and tau length |Q2|',
    'uq/plain': 'quandle 4f8bfa47ef475af6',
    'uq/sigma-conj-hom': 'DomainError: sigma is not a quandle homomorphism into the conjugation quandle: witness (x=0, y=1)',
    'uq/sigma-not-aut': 'DomainError: sigma[0] is not an automorphism of the target quandle',
    'uq/sigma-not-permutation': 'DomainError: sigma[1] is not an automorphism of the target quandle',
    'uq/sigma-wrong-degree': 'DomainError: sigma[1] is not an automorphism of the target quandle',
    'uq/tau-conj-hom': 'DomainError: tau is not a quandle homomorphism into the conjugation quandle: witness (x=0, y=1)',
    'uq/tau-not-aut': 'DomainError: tau[0] is not an automorphism of the target quandle',
    'uq/twisted': 'quandle 7366b8112655c4b6',
    'vs/both-r4': "report False (('structure-1', (1, 0)), ('structure-2', (1, 3)))",
    'vs/both-t2': "report False (('structure-1', (0, 1)), ('structure-2', (0, 1)))",
    'vs/constant': 'report True ()',
    'vs/inner-inverse-cs3': 'report True ()',
    'vs/length': 'MalformedInput: need 2 automorphisms, got 1',
    'vs/not-aut': "report False (('beta-not-automorphism', (0,)), ('beta-not-automorphism', (2,)))",
    'vs/structure-1-r4': "report False (('structure-1', (1, 0)),)",
    'vs/structure-1-t3': "report False (('structure-1', (0, 2)),)",
    'vs/structure-class': "DomainError: not a biquandle structure: ('structure-1', (0, 1))",
    'vs/wrong-degree': "report False (('beta-not-automorphism', (1,)),)",
}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_pinned_outcome(case):
    assert outcome(CORPUS[case]) == PINNED[case]


# sha256 of under then over, as C-order int64 bytes
HOLOMORPH_DIGESTS = {
    3: '78ecbf03094ac421f2a9a523a497f6f84847e43e186008a6969c358eec2ee16d',
    5: 'e40d32f5e1cb23ca95567abf3318e1ce2e884de8dab2de2c03ad35e07771477c',
    7: 'd1df2773d6173c016c8af398d970fc1b777ba64748cfcbfaaec5888eb1971c84',
}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_holomorph_tables_pinned(p):
    b = holomorph_biquandle(dihedral_quandle(p))
    h = hashlib.sha256(b.under.tobytes() + b.over.tobytes()).hexdigest()
    assert h == HOLOMORPH_DIGESTS[p]


def test_validate_structure_refuses_a_non_permutation():
    with pytest.raises(MalformedInput, match=r"beta\[1\]"):
        validate_structure(T2, (Permutation.identity(2), (1, 0)))


def test_conj_quandle_of_unclosed_set_names_the_pair():
    # degree 17: base-17 row keys would overflow int64
    d = 17
    a = Permutation((1, 0) + tuple(range(2, d)))
    b = Permutation((0, 2, 1) + tuple(range(3, d)))
    with pytest.raises(DomainError, match=r"not closed under conjugation"):
        conj_quandle_of_permgroup([a, b])


def test_conj_quandle_of_closed_set_at_degree_17():
    d = 17
    s = [Permutation(tuple(p) + tuple(range(3, d))) for p in itertools.permutations(range(3))]
    q, ordered = conj_quandle_of_permgroup(s)
    index = {p: i for i, p in enumerate(ordered)}
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            assert q.op(i, j) == index[b * a * b.inverse()]


# ---------------------------------------------------------------------------
# plain-loop oracles: the checks as the Python loops they replaced


def loop_conj_hom(q, maps, name):
    for x in range(q.n):
        for y in range(q.n):
            if maps[q.op(x, y)] != maps[y] * maps[x] * maps[y].inverse():
                return f"DomainError: {name} is not a quandle homomorphism into the conjugation quandle: witness (x={x}, y={y})"
    return None


def loop_union_quandle(q1, q2, sigma, tau):
    n1, n2 = q1.n, q2.n
    for msg in (loop_conj_hom(q1, sigma, "sigma"), loop_conj_hom(q2, tau, "tau")):
        if msg:
            return msg
    for x, y, z in itertools.product(range(n1), range(n1), range(n2)):
        if q1.op(tau[z](x), y) != tau[sigma[y](z)](q1.op(x, y)):
            return f"DomainError: union condition 1 fails at (x={x}, y={y}, z={z})"
    for x, y, z in itertools.product(range(n2), range(n2), range(n1)):
        if q2.op(sigma[z](x), y) != sigma[tau[y](z)](q2.op(x, y)):
            return f"DomainError: union condition 2 fails at (x={x}, y={y}, z={z})"
    return None


def loop_union_general(q1, q2, phi, psi):
    for msg in (loop_conj_hom(q1, phi, "phi"), loop_conj_hom(q2, psi, "psi")):
        if msg:
            return msg
    for x1, x2 in itertools.product(range(q1.n), range(q2.n)):
        if phi[x1] != phi[psi[x2](x1)]:
            return f"DomainError: union structure condition phi fails at (x1={x1}, x2={x2})"
        if psi[x2] != psi[phi[x1](x2)]:
            return f"DomainError: union structure condition psi fails at (x1={x1}, x2={x2})"
    return None


def loop_product(q1, q2, phi, psi, case):
    for msg in (loop_conj_hom(q1, phi, "phi"), loop_conj_hom(q2, psi, "psi")):
        if msg:
            return msg
    q, maps, const = (q1, phi, psi) if case == 1 else (q2, psi, phi)
    if any(p != const[0] for p in const):
        return f"DomainError: case {case} needs a constant {'psi' if case == 1 else 'phi'}"
    f = const[0]
    a, b = ("x", "y") if case == 1 else ("a", "b")
    for x, y in itertools.product(range(q.n), repeat=2):
        if maps[f(q.op(x, y))] != maps[f(y)] * maps[x] * maps[y].inverse():
            return f"DomainError: case {case} condition fails at ({a}={x}, {b}={y})"
    return None


def loop_validate(q, betas):
    bad = [("beta-not-automorphism", (y,)) for y, b in enumerate(betas) if b not in AUT_OF[id(q)]]
    if bad:
        return tuple(bad)
    for x, y in itertools.product(range(q.n), repeat=2):
        by, bx = betas[y], betas[x]
        if betas[by(q.op(x, y))] * by != betas[bx(y)] * bx:
            bad.append(("structure-1", (x, y)))
            break
    seen = {}
    for y in range(q.n):
        v = betas[y](y)
        if v in seen:
            bad.append(("structure-2", (seen[v], y)))
            break
        seen[v] = y
    return tuple(bad)


ORACLE_QUANDLES = ["R3", "R5", "T2", "T3", "CS3"]
AUT_OF = {id(Q[name]): set(AUT[name]) for name in ORACLE_QUANDLES}
ALL_PERMS = {name: [Permutation(p) for p in itertools.permutations(range(Q[name].n))] for name in ORACLE_QUANDLES}


@st.composite
def families(draw, source, target, pool=None):
    """A family of maps from Q[source] into the automorphisms of Q[target]
    (or into pool): constant, constant on two values, or arbitrary, so that
    draws get past the early checks often enough to reach the later ones."""
    pool = AUT[target] if pool is None else pool
    n = Q[source].n
    pick = st.integers(0, len(pool) - 1)
    kind = draw(st.sampled_from(["constant", "two", "any"]))
    if kind == "constant":
        return (pool[draw(pick)],) * n
    if kind == "two":
        a, b = draw(pick), draw(pick)
        return tuple(pool[a] if draw(st.booleans()) else pool[b] for _ in range(n))
    return tuple(pool[draw(pick)] for _ in range(n))


pairs = st.tuples(st.sampled_from(ORACLE_QUANDLES), st.sampled_from(ORACLE_QUANDLES))


def message(thunk):
    try:
        thunk()
    except DomainError as e:
        return f"DomainError: {e}"
    return None


@settings(max_examples=150)
@given(st.data())
def test_union_quandle_first_witness(data):
    s1, s2 = data.draw(pairs)
    sigma = data.draw(families(s1, s2))
    tau = data.draw(families(s2, s1))
    q1, q2 = Q[s1], Q[s2]
    assert message(lambda: union_quandle(q1, q2, sigma, tau)) == loop_union_quandle(q1, q2, sigma, tau)


@settings(max_examples=150)
@given(st.data())
def test_union_biquandle_general_first_witness(data):
    s1, s2 = data.draw(pairs)
    phi = data.draw(families(s1, s2))
    psi = data.draw(families(s2, s1))
    q1, q2 = Q[s1], Q[s2]
    assert message(lambda: union_biquandle_general(q1, q2, phi, psi)) == loop_union_general(q1, q2, phi, psi)


@settings(max_examples=150)
@given(st.data(), st.sampled_from([1, 2]))
def test_product_biquandle_first_witness(data, case):
    s1, s2 = data.draw(pairs)
    phi = data.draw(families(s1, s2))
    psi = data.draw(families(s2, s1))
    q1, q2 = Q[s1], Q[s2]
    assert message(lambda: product_biquandle(q1, q2, phi, psi, case)) == loop_product(q1, q2, phi, psi, case)


@settings(max_examples=150)
@given(st.data(), st.booleans())
def test_validate_structure_first_witnesses(data, any_perm):
    s = data.draw(st.sampled_from(ORACLE_QUANDLES))
    betas = data.draw(families(s, s, ALL_PERMS[s] if any_perm else None))
    assert validate_structure(Q[s], betas).violations == loop_validate(Q[s], betas)
