"""Command-line surface over the library.

Exit codes: 0 success, 1 domain error (valid input violating a
construction's hypotheses), 2 malformed input or usage error.  Output is
deterministic for fixed input and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import automorphisms, combinators, coverings, enumeration, group_constructions, groups, links, verbal
from .core import (
    FiniteBiquandle,
    FiniteQuandle,
    Permutation,
    _check_biquandle,
    _check_quandle,
    _same_size,
    check_ybe,
    read_json_tables,
)
from .errors import DomainError, MalformedInput
from .structures import BiquandleStructure, biquandle_from_structure


def _read_text(path):
    """The UTF-8 text of a file; an unreadable file is malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise MalformedInput(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise MalformedInput(f"{path}: not UTF-8 text: {e}") from None


def _read_json(path):
    """The JSON object in a file; anything else is malformed input."""
    try:
        d = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise MalformedInput(f"{path}: bad JSON: {e}") from None
    if not isinstance(d, dict):
        raise MalformedInput(f"{path}: expected a JSON object, got {type(d).__name__}")
    return d


def _load_quandle(path) -> FiniteQuandle:
    return FiniteQuandle.from_dict(_read_json(path))


def _load_biquandle(path) -> FiniteBiquandle:
    return FiniteBiquandle.from_dict(_read_json(path))


def _load_auto(path):
    d = _read_json(path)
    if "under" in d:
        return FiniteBiquandle.from_dict(d)
    if "table" in d:
        return FiniteQuandle.from_dict(d)
    if "betas" in d:
        return BiquandleStructure.from_dict(d)
    if "mul" in d:
        return groups.FiniteGroup.from_dict(d)
    raise MalformedInput(f"{path}: unrecognized JSON object")


def _ints(texts, what):
    """Parse each text as an integer, or raise MalformedInput naming what."""
    try:
        return [int(x) for x in texts]
    except ValueError:
        raise MalformedInput(f"bad {what}") from None


def _group_from_spec(spec, cap) -> groups.FiniteGroup:
    """z5, z2x3x2, s3, d4, q8, or a path to {"n", "mul"} JSON."""
    s = spec.lower()
    if s.startswith("z"):
        first, *rest = _ints(s[1:].split("x"), f"group spec {spec!r}")
        g = groups.cyclic_group(first, cap=cap)
        for p in rest:
            g = groups.direct_product(g, groups.cyclic_group(p, cap=cap), cap=cap)
        return g
    if s.startswith("s") and s[1:].isdigit():
        return groups.symmetric_group(int(s[1:]), cap=cap)
    if s.startswith("d") and s[1:].isdigit():
        return groups.dihedral_group(int(s[1:]), cap=cap)
    if s == "q8":
        return groups.quaternion_group()
    return groups.FiniteGroup.from_dict(_read_json(spec))


def _aut_by_index(g: groups.FiniteGroup, idx):
    auts = groups.automorphism_group(g)
    if not 0 <= idx < len(auts):
        raise DomainError(f"automorphism index {idx} out of range 0..{len(auts) - 1}")
    return auts[idx]


# positional parameters of each construct family: how many, and whether
# they are integers (otherwise JSON file paths); unlisted families take none
_FAMILY_PARAMS = {
    "trivial": (1, True),
    "dihedral": (1, True),
    "alexbq": (3, True),
    "union": (2, False),
    "unionbq": (2, False),
    "product": (2, False),
    "semidirect": (2, False),
    "holomorph": (1, False),
}


def _family_params(family, params):
    count, numeric = _FAMILY_PARAMS.get(family, (0, False))
    if len(params) != count:
        raise MalformedInput(f"construct {family} takes {count} parameter(s), got {len(params)}")
    return _ints(params, f"{family} parameters {' '.join(params)!r}") if numeric else params


def _perm_arg(text) -> Permutation:
    try:
        return Permutation(tuple(int(x) for x in text.split(",")))
    except (ValueError, MalformedInput) as e:
        raise MalformedInput(f"bad permutation {text!r}: {e}") from None


def _aut_list_arg(q: FiniteQuandle, text, length):
    """Comma list of indices into the (sorted) automorphism list of q."""
    auts = automorphisms.quandle_aut(q).rows
    idxs = _ints(text.split(","), f"automorphism index list {text!r}")
    if len(idxs) != length:
        raise MalformedInput(f"need {length} automorphism indices, got {len(idxs)}")
    if any(not 0 <= i < len(auts) for i in idxs):
        raise DomainError(f"automorphism index out of range 0..{len(auts) - 1}")
    return tuple(Permutation.from_array(auts[i]) for i in idxs)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report_payload(report):
    return {
        "passed": report.passed,
        "violations": [[axiom, list(witness)] for axiom, witness in report.violations],
    }


def cmd_check(args):
    d = _read_json(args.file)
    # read_json_tables coerces each table once; the checks take them as they are
    if "under" in d:
        kind, check = "biquandle", lambda u, o: _check_biquandle(*_same_size(u, o), args.all_witnesses)
    elif "table" in d:
        kind, check = "quandle", lambda t: _check_quandle(t, args.all_witnesses)
    else:
        raise MalformedInput(f"{args.file}: expected quandle or biquandle JSON")
    report = read_json_tables(d, kind, check)
    lines = [f"{kind}: {'ok' if report.passed else 'FAILED'}"]
    lines += [f"  {axiom} witness {tuple(w)}" for axiom, w in report.violations]
    _emit(args, {"kind": kind, **_report_payload(report)}, lines)
    return 0


def cmd_construct(args):
    cap = args.cap_order
    fam = args.family
    params = _family_params(fam, args.params)
    if fam == "trivial":
        obj = group_constructions.trivial_quandle(params[0])
    elif fam == "dihedral":
        obj = group_constructions.dihedral_quandle(params[0])
    elif fam == "conj":
        g = _group_from_spec(args.group, cap)
        obj = group_constructions.conj_quandle(g, args.n)
    elif fam == "core":
        obj = group_constructions.core_quandle(_group_from_spec(args.group, cap))
    elif fam == "takasaki":
        obj = group_constructions.takasaki(_group_from_spec(args.group, cap))
    elif fam == "alex":
        g = _group_from_spec(args.group, cap)
        obj = group_constructions.alexander_quandle(g, _aut_by_index(g, args.phi))
    elif fam == "wada":
        obj = group_constructions.wada_biquandle(_group_from_spec(args.group, cap))
    elif fam == "gendihedral":
        g = _group_from_spec(args.group, cap)
        obj = group_constructions.gen_dihedral_biquandle(g, _aut_by_index(g, args.phi))
    elif fam == "genalex":
        g = _group_from_spec(args.group, cap)
        obj = group_constructions.gen_alexander_biquandle(
            g, _aut_by_index(g, args.phi), _aut_by_index(g, args.psi)
        )
    elif fam == "alexbq":
        n, s, t = params
        obj = group_constructions.alexander_biquandle(n, s, t)
    elif fam == "union":
        q1, q2 = _load_quandle(params[0]), _load_quandle(params[1])
        obj = combinators.union_quandle(q1, q2)
    elif fam == "unionbq":
        q1, q2 = _load_quandle(params[0]), _load_quandle(params[1])
        f = _perm_arg(args.f) if args.f else Permutation.identity(q1.n)
        g = _perm_arg(args.g) if args.g else Permutation.identity(q2.n)
        obj = combinators.union_biquandle_constant(q1, q2, f, g)
    elif fam == "product":
        q1, q2 = _load_quandle(params[0]), _load_quandle(params[1])
        phi = _aut_list_arg(q2, args.phi_map, q1.n) if args.phi_map else combinators._identity_maps(q1.n, q2.n)
        psi = _aut_list_arg(q1, args.psi_map, q2.n) if args.psi_map else combinators._identity_maps(q2.n, q1.n)
        obj = combinators.product_biquandle(q1, q2, phi, psi, case=args.case)
    elif fam == "semidirect":
        q1, q2 = _load_quandle(params[0]), _load_quandle(params[1])
        psi = _aut_list_arg(q1, args.psi_map, q2.n) if args.psi_map else combinators._identity_maps(q2.n, q1.n)
        obj = combinators.semidirect_biquandle(q1, q2, psi)
    elif fam == "holomorph":
        obj = combinators.holomorph_biquandle(_load_quandle(params[0]))
    else:
        raise MalformedInput(f"unknown family {fam!r}")
    print(json.dumps(obj.to_dict(), sort_keys=True))
    return 0


def cmd_aut(args):
    picked = [x for x in (args.quandle, args.biquandle, args.group) if x]
    if len(picked) > 1:
        raise MalformedInput("give exactly one of --quandle, --biquandle, --group")
    if args.group:
        g = _group_from_spec(args.group, args.cap_order)
        auts = groups.automorphism_group(g)
        payload = {"order": len(auts)}
        lines = [f"order {len(auts)}"]
        if args.elements:
            payload["elements"] = [list(a.images) for a in auts]
            lines += [str(list(a.images)) for a in auts]
        _emit(args, payload, lines)
        return 0
    if args.quandle:
        grp = automorphisms.quandle_aut(_load_quandle(args.quandle))
    elif args.biquandle:
        grp = automorphisms.biquandle_aut(_load_biquandle(args.biquandle))
    else:
        raise MalformedInput("aut needs --quandle, --biquandle, or --group")
    gens = [p.cycle_notation() for p in grp.generators]
    payload = {"order": grp.order, "generators": gens}
    lines = [f"order {grp.order}", "generators " + (" ".join(gens) if gens else "(trivial)")]
    if args.elements:
        payload["elements"] = grp.rows.tolist()
        lines += [p.cycle_notation() for p in grp]
    _emit(args, payload, lines)
    return 0


def cmd_color(args):
    picked = [x for x in (args.structure, args.quandle, args.biquandle) if x]
    if len(picked) != 1:
        raise MalformedInput("give exactly one of --structure, --quandle, --biquandle")
    diagram = links.parse_diagram(_read_text(args.diagram))
    if args.quandle:
        count = links.coloring_count_quandle(diagram, _load_quandle(args.quandle))
    elif args.biquandle:
        count = links.coloring_count_biquandle(diagram, _load_biquandle(args.biquandle))
    else:
        obj = _load_auto(args.structure)
        if isinstance(obj, BiquandleStructure):
            obj = biquandle_from_structure(obj)
        if isinstance(obj, FiniteQuandle):
            count = links.coloring_count_quandle(diagram, obj)
        elif isinstance(obj, FiniteBiquandle):
            count = links.coloring_count_biquandle(diagram, obj)
        else:
            raise MalformedInput("--structure file must hold a quandle, biquandle, or structure")
    _emit(args, {"colorings": count}, [str(count)])
    return 0


def cmd_enumerate(args):
    (n,) = _ints([args.size], f"size {args.size!r}")
    if args.what == "trivial-structures":
        for s in enumeration.enumerate_trivial_structures(n, cap=args.cap_enum):
            print(json.dumps({"betas": [list(b.images) for b in s.betas]}))
    elif args.what == "quandles":
        for q in enumeration.enumerate_quandles(n, cap=args.cap_enum):
            print(json.dumps(q.to_dict(), sort_keys=True))
    else:
        raise MalformedInput(f"unknown enumeration {args.what!r}")
    return 0


def cmd_verbal(args):
    if args.action == "classify":
        if args.w:
            got = verbal.classify_verbal_quandle(verbal.parse_word(args.w))
            payload = {"family": None if got is None else [got[0], got[1]]}
            lines = ["none" if got is None else f"{got[0]}({got[1]})"]
        else:
            if not (args.u and args.v):
                raise MalformedInput("classify needs --w, or both --u and --v")
            got = verbal.classify_verbal_biquandle(verbal.parse_word(args.u), verbal.parse_word(args.v))
            payload = {"family": None if got is None else got[0], "parameter": None if got is None else got[1]}
            lines = ["none" if got is None else (f"family {got[0]}" + (f" parameter {got[1]}" if got[1] is not None else ""))]
        _emit(args, payload, lines)
    elif args.action == "check":
        if args.w:
            ok = verbal.is_verbal_quandle_word(verbal.parse_word(args.w))
        else:
            if not (args.u and args.v):
                raise MalformedInput("check needs --w, or both --u and --v")
            ok = verbal.is_verbal_birack(verbal.parse_word(args.u), verbal.parse_word(args.v))
        _emit(args, {"accepted": ok}, ["true" if ok else "false"])
    elif args.action == "enumerate":
        if args.quandle_words:
            for w in verbal.enumerate_verbal_quandle_words(args.bound):
                print(json.dumps({"w": verbal.format_word(w)}))
        else:
            for u, v in verbal.enumerate_verbal_biracks(args.bound):
                print(json.dumps({"u": verbal.format_word(u), "v": verbal.format_word(v)}))
    else:
        raise MalformedInput(f"unknown verbal action {args.action!r}")
    return 0


def cmd_ybe(args):
    b = _load_biquandle(args.biquandle)
    ok = check_ybe(b)
    _emit(args, {"holds": ok}, ["true" if ok else "false"])
    return 0


def cmd_iso(args):
    a = _load_auto(args.a)
    b = _load_auto(args.b)
    if type(a) is not type(b) or not isinstance(a, (FiniteQuandle, FiniteBiquandle)):
        raise MalformedInput("iso arguments must both be quandles or both biquandles")
    wit = enumeration.are_isomorphic(a, b)
    payload = {"isomorphic": wit is not None, "witness": None if wit is None else list(wit.images)}
    lines = ["not isomorphic" if wit is None else f"isomorphic via {list(wit.images)}"]
    _emit(args, payload, lines)
    return 0


def cmd_cover(args):
    qt = _load_quandle(args.total)
    q = _load_quandle(args.base)
    pmap = np.array(_ints(args.map.split(","), f"map {args.map!r}"), dtype=np.int64)
    if args.action == "check":
        ok = coverings.is_quandle_covering(pmap, qt, q)
        _emit(args, {"covering": ok}, ["true" if ok else "false"])
        return 0
    if args.action == "lift":
        if not args.structure:
            raise MalformedInput("lift needs --structure")
        st = BiquandleStructure.from_dict(_read_json(args.structure))
        lifted = coverings.lift_structure_search(pmap, qt, q, st)
        if lifted is None:
            _emit(args, {"found": False}, ["not found within search"])
        else:
            payload = {"found": True, "structure": lifted.to_dict()}
            _emit(args, payload, [json.dumps(lifted.to_dict(), sort_keys=True)])
        return 0
    raise MalformedInput(f"unknown cover action {args.action!r}")


def build_parser():
    ap = argparse.ArgumentParser(prog="biquandles", description="finite quandle/biquandle algebra engine")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--cap-order", type=int, default=groups.DEFAULT_ORDER_CAP, help="largest allowed group order")
    ap.add_argument("--cap-enum", type=int, default=enumeration.DEFAULT_ENUM_CAP, help="largest allowed enumeration size")
    ap.add_argument("--jobs", type=int, default=1, help="ignored; kept so that older command lines still run")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify axioms of a quandle/biquandle JSON file")
    p.add_argument("file")
    p.add_argument("--all-witnesses", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("construct", help="build a named family and print its JSON")
    p.add_argument("family", choices=(
        "trivial", "dihedral", "conj", "core", "takasaki", "alex", "wada",
        "gendihedral", "genalex", "alexbq", "union", "unionbq", "product",
        "semidirect", "holomorph"))
    p.add_argument("params", nargs="*", help="size(s) or JSON file paths, family dependent")
    p.add_argument("--group", help="group spec: z5, z2x2, s3, d4, q8, or JSON path")
    p.add_argument("--n", type=int, default=1, help="conjugation exponent for conj")
    p.add_argument("--phi", type=int, default=0, help="group automorphism index")
    p.add_argument("--psi", type=int, default=0, help="group automorphism index")
    p.add_argument("--f", help="permutation images for unionbq, e.g. 1,0")
    p.add_argument("--g", help="permutation images for unionbq")
    p.add_argument("--phi-map", dest="phi_map", help="quandle-aut indices, one per element of Q1")
    p.add_argument("--psi-map", dest="psi_map", help="quandle-aut indices, one per element of Q2")
    p.add_argument("--case", type=int, default=2, help="product biquandle case (1 or 2)")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("aut", help="automorphism group of a quandle/biquandle/group")
    p.add_argument("--quandle")
    p.add_argument("--biquandle")
    p.add_argument("--group")
    p.add_argument("--elements", action="store_true", help="print the full element list")
    p.set_defaults(fn=cmd_aut)

    p = sub.add_parser("color", help="coloring count of a diagram")
    p.add_argument("--diagram", required=True)
    p.add_argument("--structure", help="JSON file, interpreted by its keys")
    p.add_argument("--quandle", help="quandle JSON file")
    p.add_argument("--biquandle", help="biquandle JSON file")
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("enumerate", help="exhaustive listings as JSON lines")
    p.add_argument("what", choices=("trivial-structures", "quandles"))
    p.add_argument("size")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verbal", help="word-defined operations")
    p.add_argument("action", choices=("classify", "check", "enumerate"))
    p.add_argument("--w", help="single word (quandle operation)")
    p.add_argument("--u", help="over word")
    p.add_argument("--v", help="under word")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--quandle-words", action="store_true", help="enumerate single words instead of pairs")
    p.set_defaults(fn=cmd_verbal)

    p = sub.add_parser("ybe", help="check the braid relation of a biquandle's pair map")
    p.add_argument("--biquandle", required=True)
    p.set_defaults(fn=cmd_ybe)

    p = sub.add_parser("iso", help="isomorphism witness between two tables")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("cover", help="quandle covering checks and structure lifts")
    p.add_argument("action", choices=("check", "lift"))
    p.add_argument("--total", required=True, help="covering quandle JSON")
    p.add_argument("--base", required=True, help="base quandle JSON")
    p.add_argument("--map", required=True, help="comma list: image of each covering element")
    p.add_argument("--structure", help="structure JSON on the base (for lift)")
    p.set_defaults(fn=cmd_cover)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MalformedInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
