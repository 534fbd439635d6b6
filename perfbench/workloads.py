"""The benchmark's four workloads: seeded inputs and the jobs run on them.

Every workload is a closed loop with one client: one process, one thread,
each job issued after the previous one returns.  `build` makes all inputs
from the seed; the library only ever receives those inputs.  Each job
carries the check its output must pass.

Library functions are always looked up through their module at call time,
so that the wrappers installed by spans.Tracer see every call.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

REJECT_BATCH = 4  # corrupted quandle tables validated in one job


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    jobs: list
    # peak resident memory of each child process, in KiB (cli only)
    child_rss_kb: list = field(default_factory=list)


def load_library(root):
    """Import biquandles from the checkout's src/ and return its modules."""
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import biquandles
    from biquandles import (
        _kernels,
        automorphisms,
        combinators,
        core,
        enumeration,
        errors,
        group_constructions,
        groups,
        links,
    )

    if Path(biquandles.__file__).resolve().parent != (src / "biquandles").resolve():
        raise RuntimeError(f"biquandles was imported from {biquandles.__file__}, not from {src}")
    return types.SimpleNamespace(
        kernels=_kernels,
        automorphisms=automorphisms,
        combinators=combinators,
        core=core,
        enumeration=enumeration,
        errors=errors,
        constructions=group_constructions,
        groups=groups,
        links=links,
    )


def build(name, lib, seed, smoke, root, workdir):
    rng = np.random.default_rng(seed)
    if name == "cli":
        workload = _build_cli(lib, rng, smoke, root, workdir)
    else:
        builder = {"validate": _build_validate, "symmetry": _build_symmetry, "coloring": _build_coloring}[name]
        workload = Workload(builder(lib, rng, smoke))
    # a seeded order spreads similar jobs over the round, so that they meet
    # the machine in different states
    workload.jobs = [workload.jobs[i] for i in rng.permutation(len(workload.jobs))]
    return workload


# ---------------------------------------------------------------------------
# helpers


def relabel(table, perm):
    """The table transported along perm (old index -> new index)."""
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]]


def tables_of(obj):
    return [obj.table] if hasattr(obj, "table") else [obj.under, obj.over]


def maps_tables(images, tables_a, tables_b):
    """True when images is a bijection carrying every table of A onto B."""
    img = np.asarray(images, dtype=np.int64)
    if sorted(img.tolist()) != list(range(len(img))):
        return False
    return all(np.array_equal(img[a], b[np.ix_(img, img)]) for a, b in zip(tables_a, tables_b))


def _hol(lib, p):
    return lib.combinators.holomorph_biquandle(lib.constructions.dihedral_quandle(p))


def _alexander_table(p, a):
    """x * y = a x + (1 - a) y on Z_p."""
    x = np.arange(p)
    return (a * x[:, None] + (1 - a) * x[None, :]) % p


def _mult_order(a, p):
    k, v = 1, a % p
    while v != 1:
        v = v * a % p
        k += 1
    return k


# ---------------------------------------------------------------------------
# validate: construction and YBE sweeps, accepting and rejecting


def _build_validate(lib, rng, smoke):
    C = lib.constructions
    if smoke:
        biquandles = {"hol_r3": _hol(lib, 3), "hol_r5": _hol(lib, 5), "alexbq_31": C.alexander_biquandle(31, 3, 2)}
        quandles = {"dihedral_31": C.dihedral_quandle(31)}
        per_table = 6
    else:
        biquandles = {"hol_r5": _hol(lib, 5), "hol_r7": _hol(lib, 7), "alexbq_211": C.alexander_biquandle(211, 3, 2)}
        quandles = {"dihedral_301": C.dihedral_quandle(301)}
        per_table = 18
    cases = {name: [np.array(q.table)] for name, q in quandles.items()}
    cases.update({name: [np.array(b.under), np.array(b.over)] for name, b in biquandles.items()})

    jobs = []
    for name, tables in cases.items():
        jobs.append(_construct_job(lib, f"construct:{name}", [tables]))
        if len(tables) == 2:
            jobs.append(Job(f"ybe:{name}", functools.partial(_ybe, lib, tables), lambda out: out is True))

    # single-entry corruptions break a column bijection; a column swap keeps
    # the columns bijective, so it reaches the exchange sweep.  The median
    # job is a quandle rejection; each of these validates a batch of tables,
    # because one rejection's cost depends on where its corruption sits.
    for name, tables in cases.items():
        if len(tables) == 1:
            for _ in range(per_table):
                batch = [[_corrupt_entry(rng, tables[0])] for _ in range(REJECT_BATCH)]
                jobs.append(_construct_job(lib, f"reject:entry:{name}", batch))
            continue
        for kind, corrupt, count in (("entry", _corrupt_entry, per_table // 6), ("swap", _corrupt_swap, 1)):
            for _ in range(count):
                side = int(rng.integers(2))
                corrupted = list(tables)
                corrupted[side] = corrupt(rng, tables[side])
                jobs.append(_construct_job(lib, f"reject:{kind}:{name}", [corrupted]))
    return jobs


def _ybe(lib, tables):
    return lib.core.check_ybe(tuple(tables))


def _corrupt_entry(rng, t):
    n = t.shape[0]
    i, j = (int(v) for v in rng.integers(n, size=2))
    out = t.copy()
    out[i, j] = (t[i, j] + int(rng.integers(1, n))) % n
    return out


def _corrupt_swap(rng, t):
    n = t.shape[0]
    j = int(rng.integers(n))
    i1, i2 = (int(v) for v in rng.choice(n, size=2, replace=False))
    out = t.copy()
    out[[i1, i2], j] = out[[i2, i1], j]
    return out


def _construct_job(lib, name, batch):
    """Construct from each set of raw tables in batch; each result must
    match the axiom oracle."""
    quandle = len(batch[0]) == 1
    oracle = oracles.quandle_violations if quandle else oracles.biquandle_violations

    def construct(tables):
        cls = lib.core.FiniteQuandle if quandle else lib.core.FiniteBiquandle
        try:
            return cls(*tables)
        except lib.errors.AxiomError as e:
            return e.report

    @functools.cache
    def expected():
        return [oracle(*tables) for tables in batch]

    def matches(out, tables, want):
        if not want:
            return not isinstance(out, lib.core.AxiomReport) and all(
                np.array_equal(a, b) for a, b in zip(tables_of(out), tables)
            )
        return isinstance(out, lib.core.AxiomReport) and not out.passed and out.violations == want

    def check(outs):
        return all(matches(out, tables, want) for out, tables, want in zip(outs, batch, expected()))

    return Job(name, lambda: [construct(tables) for tables in batch], check)


# ---------------------------------------------------------------------------
# symmetry: automorphism groups, isomorphism, classification


def _build_symmetry(lib, rng, smoke):
    C = lib.constructions
    primes = (3, 5) if smoke else (5, 7)
    triv_n = 5 if smoke else 7
    group_order = 6 if smoke else 12
    classify_n = 4 if smoke else 5
    hol = {p: _hol(lib, p) for p in primes}
    triv = C.trivial_quandle(triv_n)
    groups = lib.groups.small_groups(group_order)
    jobs = []

    for p, b in hol.items():
        jobs.append(_aut_job(lib, f"aut:hol_r{p}", "biquandle_aut", b, oracles.dihedral_aut_order(p)))
    jobs.append(_aut_job(lib, f"aut:trivial_{triv_n}", "quandle_aut", triv, math.factorial(triv_n)))
    for p in primes:
        q = lib.core.FiniteQuandle(relabel(np.array(C.dihedral_quandle(p).table), rng.permutation(p)))
        jobs.append(_aut_job(lib, f"aut:dihedral_{p}", "quandle_aut", q, oracles.dihedral_aut_order(p)))

    for g, order in zip(groups, oracles.SMALL_GROUP_AUT_ORDERS):
        jobs.append(Job(
            f"aut_group:{g.name}",
            functools.partial(lambda g: lib.groups.automorphism_group(g), g),
            functools.partial(lambda order, out: len(out) == order, order),
        ))

    # isomorphic pairs: an object and a seeded relabeling of it
    sources = [C.dihedral_quandle(p) for p in primes] + [hol[primes[0]]] + ([] if smoke else [_hol(lib, 3)])
    for x in sources:
        perm = rng.permutation(x.n)
        if hasattr(x, "table"):
            y = lib.core.FiniteQuandle(relabel(np.array(x.table), perm))
        else:
            y = lib.core.FiniteBiquandle(relabel(np.array(x.under), perm), relabel(np.array(x.over), perm))
        jobs.append(_iso_job(lib, f"iso:true:n{x.n}", x, y, True))

    # non-isomorphic pairs with equal invariants: Alexander quandles on Z_p
    # whose multipliers are two different primitive roots
    p = 7 if smoke else 13
    roots = [a for a in range(2, p) if _mult_order(a, p) == p - 1]
    for _ in range(2):
        a, b = (int(v) for v in rng.choice(roots, size=2, replace=False))
        x = lib.core.FiniteQuandle(relabel(_alexander_table(p, a), rng.permutation(p)))
        y = lib.core.FiniteQuandle(relabel(_alexander_table(p, b), rng.permutation(p)))
        jobs.append(_iso_job(lib, f"iso:false:n{p}", x, y, False))

    jobs.append(Job(
        f"classify:{classify_n}",
        functools.partial(_classify, lib, classify_n),
        lambda out: out == oracles.QUANDLE_CLASSES[classify_n],
    ))
    return jobs


def _aut_job(lib, name, fn, obj, order):
    tables = tables_of(obj)

    def check(group):
        return group.order == order and all(maps_tables(g.images, tables, tables) for g in group.generators)

    return Job(name, lambda: getattr(lib.automorphisms, fn)(obj), check)


def _iso_job(lib, name, x, y, isomorphic):
    def check(witness):
        if not isomorphic:
            return witness is None
        return witness is not None and maps_tables(witness.images, tables_of(x), tables_of(y))

    return Job(name, lambda: lib.enumeration.are_isomorphic(x, y), check)


def _classify(lib, n):
    """Number of isomorphism classes among all quandle tables of order n."""
    reps = []
    for q in lib.enumeration.enumerate_quandles(n):
        if all(lib.enumeration.are_isomorphic(r, q) is None for r in reps):
            reps.append(q)
    return len(reps)


# ---------------------------------------------------------------------------
# coloring: link diagrams colored by biquandles and quandles


def diagram_text(diagram):
    """The text form parse_diagram reads, for a validated diagram."""
    lines = []
    for c in diagram.crossings:
        if hasattr(c, "sign"):
            sign = "+" if c.sign > 0 else "-"
            lines.append(f"X {sign} {c.in_under} {c.in_over} {c.out_under} {c.out_over}")
        else:
            lines.append(f"V {c.in1} {c.in2} {c.out1} {c.out2}")
    lines += [f"= {a} {b}" for a, b in diagram.closures]
    return "\n".join(lines) + "\n"


def torus_text(k):
    """The closed 2-braid sigma_1^k: the (2, k) torus link, 2k + 2 arcs."""
    lines = []
    a, b = "x1", "y1"
    for j in range(1, k + 1):
        lines.append(f"X + {a} {b} u{j} v{j}")
        a, b = f"v{j}", f"u{j}"
    lines += [f"= v{k} x1", f"= u{k} y1"]
    return "\n".join(lines) + "\n"


def rename_arcs(text, rng):
    """The same diagram with its arcs renamed by a seeded permutation."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    start = {"X": 2, "V": 1, "=": 1}
    arcs = sorted({a for r in rows for a in r[start[r[0]]:]})
    fresh = [f"a{i}" for i in rng.permutation(len(arcs))]
    new = dict(zip(arcs, fresh))
    return "".join(" ".join(r[: start[r[0]]] + [new[a] for a in r[start[r[0]]:]]) + "\n" for r in rows)


def _build_coloring(lib, rng, smoke):
    C = lib.constructions
    builtin = lib.links.builtin_diagrams()
    texts = {name: diagram_text(builtin[name]) for name in ("trefoil", "hopf", "virtual_hopf")}
    if smoke:
        biquandles = {"alexbq_11_3_2": C.alexander_biquandle(11, 3, 2), "hol_r3": _hol(lib, 3)}
        cases = [("trefoil", "alexbq_11_3_2"), ("hopf", "hol_r3"), ("virtual_hopf", "hol_r3")]
        generated, renamed = [(2, 7), (3, 5)], [(2, 3), (3, 3)]
    else:
        biquandles = {"alexbq_31_3_2": C.alexander_biquandle(31, 3, 2), "hol_r5": _hol(lib, 5), "hol_r3": _hol(lib, 3)}
        cases = [("trefoil", "alexbq_31_3_2"), ("hopf", "hol_r5"), ("trefoil", "hol_r3"), ("virtual_hopf", "hol_r5")]
        # (k, n) for T(2, k) x R_n.  The generated diagrams cost the same on
        # every seed and the median job is one of them; the seeded renamings
        # are of links small enough that every renaming is cheaper than they
        # are, and that the brute-force oracle checks them.  No job outweighs
        # the (trefoil, hol_r3) job, on which the tail percentile of 27 jobs
        # a round falls.
        generated = [(2, 9), (2, 11), (2, 15), (2, 21), (2, 31), (3, 5), (3, 7), (3, 11), (4, 5), (5, 3), (6, 3)]
        renamed = [(2, 3), (2, 5), (3, 3)] * 4
    jobs = []
    for d, b in cases:
        jobs.append(Job(
            f"color:{d}:{b}",
            functools.partial(_color, lib, "coloring_count_biquandle", texts[d], biquandles[b]),
            functools.partial(lambda want, out: out == want, oracles.BIQUANDLE_COLORINGS[(d, b)]),
        ))
    dihedral = {n: C.dihedral_quandle(n) for _, n in generated + renamed}
    for k, n in generated:
        jobs.append(_torus_job(lib, k, n, torus_text(k), dihedral[n]))
    for k, n in renamed:
        jobs.append(_torus_job(lib, k, n, rename_arcs(torus_text(k), rng), dihedral[n]))
    return jobs


def _color(lib, fn, text, obj):
    diagram = lib.links.parse_diagram(text)
    return getattr(lib.links, fn)(diagram, obj)


def _torus_job(lib, k, n, text, q):
    arcs = 2 * k + 2

    @functools.cache
    def expected():
        want = oracles.torus_colorings(n, k)
        if arcs <= 8 and n**arcs <= 20000:
            brute = lib.links.coloring_count_bruteforce(lib.links.parse_diagram(text), lib.core.biquandle_of_quandle(q))
            return want if brute == want else None
        return want

    return Job(
        f"color:t2_{k}:r{n}",
        functools.partial(_color, lib, "coloring_count_quandle", text, q),
        lambda out: out == expected(),
    )


# ---------------------------------------------------------------------------
# cli: one `python -m biquandles.cli` process per job


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def cli_process(root, workdir, argv):
    """Run the CLI once in a fresh interpreter and wait for it to exit."""
    return python_process(root, workdir, ["-m", "biquandles.cli", *argv])


def python_process(root, workdir, argv):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    wd = Path(workdir)
    with open(wd / "stdout", "w+b") as out, open(wd / "stderr", "w+b") as err:
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, cwd=wd, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliRun(proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss)


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path.name


def _build_cli(lib, rng, smoke, root, workdir):
    C = lib.constructions
    wd = Path(workdir)
    child_rss = []

    # inputs: quandle tables are relabeled by seeded permutations
    r7 = np.array(C.dihedral_quandle(7).table)
    r7a = _write_json(wd / "r7a.json", {"n": 7, "table": relabel(r7, rng.permutation(7)).tolist()})
    r7b = _write_json(wd / "r7b.json", {"n": 7, "table": relabel(r7, rng.permutation(7)).tolist()})
    p = int(rng.choice((5, 7, 11)))
    valid_table = relabel(np.array(C.dihedral_quandle(p).table), rng.permutation(p))
    valid = _write_json(wd / "valid.json", {"n": p, "table": valid_table.tolist()})
    corrupt_table = _corrupt_entry(rng, valid_table)
    corrupt = _write_json(wd / "corrupt.json", {"n": p, "table": corrupt_table.tolist()})
    r3 = _write_json(wd / "r3.json", C.dihedral_quandle(3).to_dict())
    hol_r3 = _hol(lib, 3)
    hol = _write_json(wd / "hol_r3.json", hol_r3.to_dict())
    n_color = int(rng.choice((3, 5, 7)))
    rn = _write_json(wd / "rn.json", C.dihedral_quandle(n_color).to_dict())
    (wd / "knot.txt").write_text(rename_arcs(torus_text(3), rng))
    (wd / "malformed.json").write_text('{"n": 3, "table": [[0, 2')
    n_construct = int(rng.choice(range(5, 16, 2)))

    def js(run):
        return json.loads(run.stdout) if run.code == 0 else None

    def construct_ok(run):
        a = np.arange(n_construct)
        return js(run) == {"n": n_construct, "table": ((2 * a[None, :] - a[:, None]) % n_construct).tolist()}

    def check_report(want):
        return lambda run: js(run) == {
            "kind": "quandle", "passed": not want, "violations": [[ax, list(w)] for ax, w in want],
        }

    def iso_ok(run):
        out = js(run)
        tabs = [[np.array(json.loads((wd / f).read_text())["table"])] for f in (r7a, r7b)]
        return bool(out and out["isomorphic"] and maps_tables(out["witness"], *tabs))

    commands = [
        (["construct", "dihedral", str(n_construct)], construct_ok),
        (["construct", "holomorph", r3], lambda run: js(run) == hol_r3.to_dict()),
        (["check", valid], check_report(())),
        (["check", corrupt], check_report(oracles.quandle_violations(corrupt_table))),
        (["aut", "--quandle", r7a], lambda run: (js(run) or {}).get("order") == oracles.dihedral_aut_order(7)),
        (["iso", r7a, r7b], iso_ok),
        (["ybe", "--biquandle", hol], lambda run: run.code == 0 and run.stdout == oracles.CLI_STDOUT["ybe_hol_r3"]),
        (["color", "--diagram", "knot.txt", "--quandle", rn],
         lambda run: js(run) == {"colorings": oracles.torus_colorings(n_color, 3)}),
        (["enumerate", "quandles", "3"],
         lambda run: run.code == 0 and run.stdout == oracles.CLI_STDOUT["enumerate_quandles_3"]),
        (["check", "malformed.json"],
         lambda run: run.code == 2 and run.stderr.startswith("error:") and "Traceback" not in run.stderr),
    ]
    if not smoke:
        commands = commands * 2

    def job(argv, check):
        def run():
            out = cli_process(root, workdir, ["--format", "json", *argv])
            child_rss.append(out.maxrss_kb)
            return out

        return Job(f"cli:{argv[0]}:{argv[1]}", run, check)

    return Workload([job(argv, check) for argv, check in commands], child_rss)
