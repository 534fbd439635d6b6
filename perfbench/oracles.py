"""Reference values and slow oracles the benchmark checks every job against.

The first-witness oracles restate the axioms directly, one row block at a
time, independently of the library's sweeps; they define which witness a
rejected table must report.  The constants were captured from the library
at the commit that introduced this benchmark.
"""

from __future__ import annotations

import math

import numpy as np

# |Aut(G)| for each group of groups.small_groups(12), in catalogue order.
SMALL_GROUP_AUT_ORDERS = (1, 1, 2, 2, 6, 4, 2, 6, 6, 4, 8, 168, 8, 24, 6, 48, 4, 20, 10, 4, 12, 12, 24, 12)

# Quandles of order n up to isomorphism.
QUANDLE_CLASSES = {4: 7, 5: 22}

# Biquandle coloring counts that no brute force can reach at benchmark size.
BIQUANDLE_COLORINGS = {
    ("trefoil", "alexbq_31_3_2"): 31,
    ("trefoil", "alexbq_11_3_2"): 11,
    ("hopf", "hol_r5"): 500,
    ("hopf", "hol_r3"): 54,
    ("trefoil", "hol_r3"): 108,
    ("virtual_hopf", "hol_r5"): 220,
    ("virtual_hopf", "hol_r3"): 30,
}

# Exact CLI stdout for commands whose input does not depend on the seed.
CLI_STDOUT = {
    "enumerate_quandles_3": (
        '{"n": 3, "table": [[0, 0, 0], [1, 1, 1], [2, 2, 2]]}\n'
        '{"n": 3, "table": [[0, 0, 0], [2, 1, 1], [1, 2, 2]]}\n'
        '{"n": 3, "table": [[0, 0, 1], [1, 1, 0], [2, 2, 2]]}\n'
        '{"n": 3, "table": [[0, 2, 0], [1, 1, 1], [2, 0, 2]]}\n'
        '{"n": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}\n'
    ),
    "ybe_hol_r3": '{"holds": true}\n',
}


def dihedral_aut_order(p):
    """|Aut(R_p)| = p(p-1) for an odd prime p; Aut(Hol(R_p)) has the same order."""
    return p * (p - 1)


def torus_colorings(n, k):
    """Colorings of the (2, k) torus link by the dihedral quandle R_n, n odd."""
    return n * math.gcd(n, k)


def _first_bad_column(t):
    n = t.shape[0]
    for b in range(n):
        if sorted(t[:, b].tolist()) != list(range(n)):
            return b
    return None


def quandle_violations(t):
    """The violation tuple check_quandle must report for table t."""
    n = t.shape[0]
    out = []
    bad = np.argwhere((t < 0) | (t >= n))
    if bad.size:
        return (("entry-range", tuple(int(v) for v in bad[0])),)
    diag = np.flatnonzero(np.diagonal(t) != np.arange(n))
    if diag.size:
        out.append(("q1", (int(diag[0]),)))
    b = _first_bad_column(t)
    if b is not None:
        out.append(("r1", (b,)))
    for a in range(n):
        # (a*b)*c against (a*c)*(b*c) over all b, c
        lhs = t[t[a, :][:, None], np.arange(n)[None, :]]
        rhs = t[t[a, :][None, :], t]
        hit = np.argwhere(lhs != rhs)
        if hit.size:
            out.append(("r2", (a, int(hit[0][0]), int(hit[0][1]))))
            break
    return tuple(out)


def biquandle_violations(u, o):
    """The violation tuple check_biquandle must report for tables u, o."""
    n = u.shape[0]
    bad = np.argwhere((u < 0) | (u >= n) | (o < 0) | (o >= n))
    if bad.size:
        return (("entry-range", tuple(int(v) for v in bad[0])),)
    out = []
    diag = np.flatnonzero(np.diagonal(u) != np.diagonal(o))
    if diag.size:
        out.append(("b1", (int(diag[0]),)))
    bu, bo = _first_bad_column(u), _first_bad_column(o)
    if bu is not None:
        out.append(("b2-under-columns", (bu,)))
    if bo is not None:
        out.append(("b2-over-columns", (bo,)))
    if bu is not None or bo is not None:
        return tuple(out)
    seen = set()
    for x in range(n):
        for y in range(n):
            pair = (int(o[y, x]), int(u[x, y]))
            if pair in seen:
                out.append(("b2-pairmap", (x, y)))
                break
            seen.add(pair)
        else:
            continue
        break
    names = ("b3a", "b3b", "b3c")
    Y = np.arange(n)[:, None]
    Z = np.arange(n)[None, :]
    for x in range(n):
        # (x u y) u (z u y) = (x u z) u (y o z), and the two mixed forms
        laws = (
            u[u[x, Y], u[Z, Y]] != u[u[x, Z], o[Y, Z]],
            o[u[x, Y], u[Z, Y]] != u[o[x, Z], o[Y, Z]],
            o[o[x, Y], o[Z, Y]] != o[o[x, Z], u[Y, Z]],
        )
        hits = [(int(y), int(z), code) for code, m in enumerate(laws) for y, z in np.argwhere(m)[:1]]
        if hits:
            y, z, code = min(hits)
            out.append((names[code], (x, y, z)))
            break
    return tuple(out)
