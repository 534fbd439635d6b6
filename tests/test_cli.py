import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles import core, group_constructions, verbal
from biquandles.cli import main
from biquandles.group_constructions import dihedral_quandle, trivial_quandle, wada_biquandle
from biquandles.combinators import union_biquandle_constant
from biquandles.core import Permutation
from biquandles.groups import cyclic_group, symmetric_group
from biquandles.structures import inverse_inner_structure


@pytest.fixture
def r3_file(tmp_path):
    p = tmp_path / "r3.json"
    p.write_text(dihedral_quandle(3).to_json())
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstructAndCheck:
    def test_construct_dihedral(self, capsys):
        code, out, _ = run(capsys, "construct", "dihedral", "3")
        assert code == 0
        assert json.loads(out) == {"n": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}

    def test_check_valid(self, capsys, r3_file):
        code, out, _ = run(capsys, "check", r3_file)
        assert code == 0 and "ok" in out

    def test_check_reports_violation(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2, "table": [[0, 1], [0, 1]]}')
        code, out, _ = run(capsys, "check", str(p))
        assert code == 0 and "FAILED" in out and "r1" in out

    def test_malformed_exits_2(self, capsys, tmp_path, r3_file):
        p = tmp_path / "nope.json"
        p.write_text("garbage")
        code, _, err = run(capsys, "check", str(p))
        assert code == 2 and "error" in err
        diagram = tmp_path / "unknot.txt"
        diagram.write_text("= a a\n")
        for top in ("5", '"under table"', "[1, 2]", "null"):
            p.write_text(top)
            for argv in (
                ("check", str(p)),
                ("iso", str(p), str(p)),
                ("color", "--diagram", str(diagram), "--structure", str(p)),
            ):
                code, _, err = run(capsys, *argv)
                assert code == 2 and "expected a JSON object" in err, (top, argv)
        for argv in (
            ("enumerate", "quandles", "abc"),
            ("construct", "trivial", "abc"),
            ("construct", "trivial"),
            ("construct", "trivial", "2", "3"),
            ("construct", "alexbq", "5", "3"),
            ("construct", "union", r3_file),
            ("construct", "wada", "3", "--group", "z3"),
            ("aut", "--group", "zx"),
            ("aut", "--group", "z2x"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2 and err.startswith("error:") and "Traceback" not in err, argv
        # entries that are not integers are refused, not truncated or parsed
        for table in (
            "[[0.9, 0], [1, 1]]",
            '[["0", "0"], ["1", "1"]]',
            "[[100000000000000000000000, 0], [1, 1]]",
            "[[0, 0], [true, 1]]",
        ):
            p.write_text(f'{{"n": 2, "table": {table}}}')
            for argv in (("check", str(p)), ("aut", "--quandle", str(p))):
                code, out, err = run(capsys, *argv)
                assert code == 2 and err.startswith("error:") and not out, (table, argv)
        # a declared n that is missing or is not the tables' size, on tables
        # that pass and tables that fail the axioms
        r3 = dihedral_quandle(3).to_dict()["table"]
        bad = [[0, 0, 0], [1, 1, 1], [2, 2, 0]]
        wada = wada_biquandle(cyclic_group(3)).to_dict()
        for doc in (
            {"n": 5, "table": r3},
            {"table": r3},
            {"n": 2, "table": bad},
            {"table": bad},
            {**wada, "n": 4},
            {"under": wada["under"], "over": wada["over"]},
        ):
            p.write_text(json.dumps(doc))
            code, out, err = run(capsys, "check", str(p))
            assert code == 2 and not out, doc
            assert ("declared n=" if "n" in doc else "JSON needs keys 'n'") in err, (doc, err)
        # the declared n is checked before the axioms, by every loader
        p.write_text(json.dumps({"n": 2, "table": bad}))
        flat = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
        q = tmp_path / "bq.json"
        q.write_text(json.dumps({"n": 2, "under": bad, "over": flat}))
        for argv in (
            ("check", str(p)),
            ("aut", "--quandle", str(p)),
            ("iso", str(p), str(p)),
            ("check", str(q)),
            ("aut", "--biquandle", str(q)),
            ("iso", str(q), str(q)),
            ("ybe", "--biquandle", str(q)),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out and "declared n=2 but" in err, (argv, err)
        # group files too, on a table with no inverses and on a group table
        g = tmp_path / "group.json"
        for mul in ([[0, 1], [1, 1]], [[0, 1], [1, 0]]):
            g.write_text(json.dumps({"n": 5, "mul": mul}))
            for argv in (("aut", "--group", str(g)), ("construct", "alex", "--group", str(g))):
                code, out, err = run(capsys, *argv)
                assert code == 2 and not out and "declared n=5 but table is 2x2" in err, (mul, argv, err)
        # structure files whose betas are not integer permutation rows
        base = dihedral_quandle(3).to_json()
        for betas in (
            "[[0, true, 2], [0, 1, 2], [0, 1, 2]]",
            "[[0.0, 1, 2], [0, 1, 2], [0, 1, 2]]",
            '[["0", 1, 2], [0, 1, 2], [0, 1, 2]]',
            "[[[0], 1, 2], [0, 1, 2], [0, 1, 2]]",
            "5",
            '{"0": [0, 1, 2]}',
        ):
            p.write_text(f'{{"base": {base}, "betas": {betas}}}')
            for argv in (
                ("cover", "lift", "--total", r3_file, "--base", r3_file, "--map", "0,1,2", "--structure", str(p)),
                ("color", "--diagram", str(diagram), "--structure", str(p)),
            ):
                code, out, err = run(capsys, *argv)
                assert code == 2 and err.startswith("error:") and not out, (betas, argv)
        # files that are not UTF-8 text
        p.write_bytes(b"\xff\xfe{}")
        diagram.write_bytes(b"\xff\xfe= a a\n")
        for argv in (("check", str(p)), ("color", "--diagram", str(diagram), "--quandle", r3_file)):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "not UTF-8" in err, argv

    def test_check_biquandle_file(self, capsys, tmp_path):
        from biquandles.group_constructions import wada_biquandle
        from biquandles.groups import cyclic_group

        p = tmp_path / "w.json"
        p.write_text(wada_biquandle(cyclic_group(3)).to_json())
        code, out, _ = run(capsys, "--format", "json", "check", str(p))
        assert code == 0
        got = json.loads(out)
        assert got["kind"] == "biquandle" and got["passed"]

    def test_check_all_witnesses(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2, "table": [[0, 0], [1, 0]]}')
        code, out, _ = run(capsys, "--format", "json", "check", str(p), "--all-witnesses")
        assert code == 0
        got = json.loads(out)
        assert not got["passed"]
        axioms = {v[0] for v in got["violations"]}
        assert {"q1", "r1"} <= axioms

    def test_check_all_witnesses_lists_every_out_of_range_entry(self, capsys, tmp_path):
        p = tmp_path / "oor.json"
        p.write_text('{"n": 2, "under": [[0, 5], [1, 1]], "over": [[0, 0], [-1, 1]]}')
        code, out, _ = run(capsys, "--format", "json", "check", str(p), "--all-witnesses")
        assert code == 0
        assert json.loads(out)["violations"] == [["entry-range", [0, 1]], ["entry-range", [1, 0]]]

    def test_domain_error_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "takasaki", "--group", "s3")
        assert code == 1 and "abelian" in err
        # a well-formed group spec past the order cap is a domain error
        code, _, err = run(capsys, "aut", "--group", "z300")
        assert code == 1 and "exceeds cap" in err
        # automorphism groups too large to list: 11! and |GL(6, 2)| ~ 2e10
        t11 = tmp_path / "t11.json"
        t11.write_text(trivial_quandle(11).to_json())
        code, _, err = run(capsys, "aut", "--quandle", str(t11))
        assert code == 1 and "can be listed" in err
        code, _, err = run(capsys, "aut", "--group", "z2x2x2x2x2x2")
        assert code == 1 and "can be listed" in err

    def test_construct_families_via_group_specs(self, capsys):
        for argv in (
            ("construct", "conj", "--group", "s3"),
            ("construct", "core", "--group", "z5"),
            ("construct", "alex", "--group", "z5", "--phi", "1"),
            ("construct", "wada", "--group", "z2x2"),
            ("construct", "alexbq", "5", "3", "2"),
            ("construct", "genalex", "--group", "z5", "--phi", "1", "--psi", "2"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            json.loads(out)

    @pytest.mark.parametrize("family, params", [("trivial", ()), ("dihedral", ()), ("alexbq", ("3", "2"))])
    def test_construct_order_ceiling(self, capsys, monkeypatch, family, params):
        # 7 stands in for the real ceiling, so no test allocates near it
        monkeypatch.setattr(group_constructions, "MAX_ORDER", 7)
        code, out, _ = run(capsys, "construct", family, "7", *params)
        assert code == 0 and json.loads(out)["n"] == 7
        code, out, err = run(capsys, "construct", family, "8", *params)
        assert (code, out) == (1, "") and err.startswith("error:") and "1 <= n <= 7" in err

    def test_construct_conj_with_huge_exponent(self, capsys):
        code, out, err = run(capsys, "construct", "conj", "--group", "z5", "--n", "1000000000")
        assert code == 0, err
        assert json.loads(out)["n"] == 5

    def test_construct_combinators(self, capsys, tmp_path, r3_file):
        t2 = tmp_path / "t2.json"
        t2.write_text(trivial_quandle(2).to_json())
        code, out, _ = run(capsys, "construct", "union", r3_file, r3_file)
        assert code == 0 and json.loads(out)["n"] == 6
        code, out, _ = run(capsys, "construct", "unionbq", str(t2), str(t2), "--f", "1,0", "--g", "1,0")
        assert code == 0 and json.loads(out)["n"] == 4
        code, out, _ = run(capsys, "construct", "semidirect", r3_file, str(t2))
        assert code == 0 and json.loads(out)["n"] == 6
        code, out, _ = run(capsys, "construct", "holomorph", r3_file)
        assert code == 0 and json.loads(out)["n"] == 18

    def test_construct_semidirect_with_aut_indices(self, capsys, tmp_path, r3_file):
        # psi assigns each element of Q2 an index into the sorted Aut(Q1) list
        t2 = tmp_path / "t2.json"
        t2.write_text(trivial_quandle(2).to_json())
        code, out, _ = run(capsys, "construct", "semidirect", r3_file, str(t2), "--psi-map", "1,1")
        assert code == 0 and json.loads(out)["n"] == 6
        code, _, err = run(capsys, "construct", "semidirect", r3_file, str(t2), "--psi-map", "9,9")
        assert code == 1 and "out of range" in err
        code, _, err = run(capsys, "construct", "semidirect", r3_file, str(t2), "--psi-map", "1")
        assert code == 2


class TestAut:
    def test_quandle_aut(self, capsys, r3_file):
        code, out, _ = run(capsys, "--format", "json", "aut", "--quandle", r3_file)
        assert code == 0 and json.loads(out)["order"] == 6

    def test_group_aut(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "aut", "--group", "z5")
        assert code == 0 and json.loads(out)["order"] == 4

    def test_elements_listing(self, capsys, r3_file):
        code, out, _ = run(capsys, "--format", "json", "aut", "--quandle", r3_file, "--elements")
        assert len(json.loads(out)["elements"]) == 6

    @pytest.mark.parametrize(
        "flags",
        [("--quandle", "--biquandle", "--group"), ("--quandle", "--group"), ("--quandle", "--biquandle"), ("--biquandle", "--group")],
    )
    def test_more_than_one_input_exits_2(self, capsys, tmp_path, r3_file, flags):
        b = tmp_path / "w.json"
        b.write_text(wada_biquandle(cyclic_group(3)).to_json())
        given = {"--quandle": r3_file, "--biquandle": str(b), "--group": "z5"}
        code, out, err = run(capsys, "aut", *(x for flag in flags for x in (flag, given[flag])))
        assert code == 2 and out == ""
        assert "give exactly one of --quandle, --biquandle, --group" in err


ISO_FILES = {
    "q": lambda: dihedral_quandle(3).to_json(),
    "b": lambda: wada_biquandle(cyclic_group(3)).to_json(),
    "s": lambda: json.dumps(inverse_inner_structure(dihedral_quandle(3)).to_dict()),
    "g": lambda: symmetric_group(3).to_json(),
}


SAME_KIND = [("q", "q"), ("b", "b")]


def iso_files(tmp_path, *keys):
    """One file per key of ISO_FILES, as path strings."""
    paths = [tmp_path / f"{i}{key}.json" for i, key in enumerate(keys)]
    for path, key in zip(paths, keys):
        path.write_text(ISO_FILES[key]())
    return list(map(str, paths))


class TestIsoInputs:
    @pytest.mark.parametrize("a,b", SAME_KIND)
    def test_two_of_a_kind(self, capsys, tmp_path, a, b):
        code, out, _ = run(capsys, "--format", "json", "iso", *iso_files(tmp_path, a, b))
        assert code == 0 and json.loads(out)["isomorphic"]

    @pytest.mark.parametrize("a,b", [(a, b) for a in ISO_FILES for b in ISO_FILES if (a, b) not in SAME_KIND])
    def test_any_other_pair_exits_2(self, capsys, tmp_path, a, b):
        code, out, err = run(capsys, "iso", *iso_files(tmp_path, a, b))
        assert code == 2 and out == ""
        assert "iso arguments must both be quandles or both biquandles" in err


class TestColor:
    def test_virtual_hopf_example(self, capsys, tmp_path):
        t2 = trivial_quandle(2)
        b = union_biquandle_constant(t2, t2, Permutation((1, 0)), Permutation((1, 0)))
        bq = tmp_path / "unionT2T2.json"
        bq.write_text(b.to_json())
        diagram = tmp_path / "vhopf.txt"
        diagram.write_text("X + b d c a\nV a c d b\n")
        code, out, _ = run(capsys, "color", "--diagram", str(diagram), "--biquandle", str(bq))
        assert code == 0 and out.strip() == "8"

    def test_structure_flag_autodetects(self, capsys, tmp_path, r3_file):
        diagram = tmp_path / "unknot.txt"
        diagram.write_text("= a a\n")
        code, out, _ = run(capsys, "color", "--diagram", str(diagram), "--structure", r3_file)
        assert code == 0 and out.strip() == "3"

    def test_unlink_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        diagram = tmp_path / "unlink.txt"
        diagram.write_text("".join(f"= a{i} a{i}\n" for i in range(1100)))
        point = tmp_path / "t1.json"
        point.write_text(trivial_quandle(1).to_json())
        code, out, _ = run(capsys, "color", "--diagram", str(diagram), "--quandle", str(point))
        assert code == 0 and out.strip() == "1"

    def test_search_over_the_cap_exits_1(self, capsys, tmp_path):
        diagram = tmp_path / "unlink9.txt"
        diagram.write_text("".join(f"= a{i} a{i}\n" for i in range(9)))
        t10 = tmp_path / "t10.json"
        t10.write_text(trivial_quandle(10).to_json())
        code, out, err = run(capsys, "color", "--diagram", str(diagram), "--quandle", str(t10))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_exactly_one_input(self, capsys, tmp_path, r3_file):
        diagram = tmp_path / "unknot.txt"
        diagram.write_text("= a a\n")
        code, _, err = run(capsys, "color", "--diagram", str(diagram))
        assert code == 2


class TestUnreadableFiles:
    # the stderr bytes the separate readers of color and check gave
    ERRORS = {
        "missing.txt": "error: cannot read missing.txt: [Errno 2] No such file or directory: 'missing.txt'\n",
        "adir": "error: cannot read adir: [Errno 21] Is a directory: 'adir'\n",
        "latin1.txt": "error: latin1.txt: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
    }

    @pytest.mark.parametrize("name", sorted(ERRORS))
    def test_color_and_check_exit_2(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "latin1.txt").write_bytes(b"\xff= a a\n")
        (tmp_path / "r3.json").write_text(dihedral_quandle(3).to_json())
        for argv in (("color", "--diagram", name, "--quandle", "r3.json"), ("check", name)):
            assert run(capsys, *argv) == (2, "", self.ERRORS[name])


class TestVerbalYbeIsoCoverEnumerate:
    def test_verbal_classify_pair(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verbal", "classify", "--u", "y^-2 x", "--v", "y^-1 x^-1 y^1")
        assert code == 0 and json.loads(out)["family"] == 6

    def test_verbal_classify_quandle_word(self, capsys):
        code, out, _ = run(capsys, "verbal", "classify", "--w", "y x^-1 y")
        assert code == 0 and "core" in out

    def test_verbal_enumerate(self, capsys):
        code, out, _ = run(capsys, "verbal", "enumerate", "--bound", "0")
        pairs = [json.loads(line) for line in out.splitlines()]
        assert {(p["u"], p["v"]) for p in pairs} == {("x", "x"), ("x^-1", "x^-1")}

    def test_verbal_enumerate_quandle_words(self, capsys):
        code, out, _ = run(capsys, "verbal", "enumerate", "--bound", "1", "--quandle-words")
        words = [json.loads(line)["w"] for line in out.splitlines()]
        assert code == 0 and set(words) == {"x", "y^-1 x y", "y x y^-1", "y x^-1 y"}

    def test_verbal_exponent_ceiling(self, capsys):
        at, above = verbal.MAX_EXPONENT, verbal.MAX_EXPONENT + 1
        code, out, _ = run(capsys, "verbal", "check", "--u", f"y^{at} x y^-{at}", "--v", "x")
        assert code == 0 and out.strip() == "true"
        for u in (f"y^{above} x y^-{above}", f"y^-{at} y^-1 x", "y^" + "9" * 5000 + " x", "y^1000000000 x y^-1000000000"):
            code, out, err = run(capsys, "verbal", "check", "--u", u, "--v", "x")
            assert (code, out) == (2, "") and "ceiling of 10000" in err

    @pytest.mark.parametrize("flags, ceiling", [((), "MAX_BIRACK_BOUND"), (("--quandle-words",), "MAX_QUANDLE_WORD_BOUND")])
    def test_verbal_enumeration_ceiling(self, capsys, monkeypatch, flags, ceiling):
        monkeypatch.setattr(verbal, ceiling, 1)
        code, out, _ = run(capsys, "verbal", "enumerate", "--bound", "1", *flags)
        assert code == 0 and out
        monkeypatch.setattr(verbal, "substitute", None)  # refused before any substitution
        code, out, err = run(capsys, "verbal", "enumerate", "--bound", "2", *flags)
        assert (code, out) == (1, "") and "ceiling of 1" in err

    def test_verbal_check(self, capsys):
        code, out, _ = run(capsys, "verbal", "check", "--u", "x^-1", "--v", "x^-1")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "verbal", "check", "--w", "x^-1")
        assert code == 0 and out.strip() == "false"

    def test_ybe(self, capsys, tmp_path):
        from biquandles.group_constructions import wada_biquandle
        from biquandles.groups import cyclic_group

        f = tmp_path / "w.json"
        f.write_text(wada_biquandle(cyclic_group(3)).to_json())
        code, out, _ = run(capsys, "ybe", "--biquandle", str(f))
        assert code == 0 and out.strip() == "true"

    def test_iso(self, capsys, tmp_path, r3_file):
        code, out, _ = run(capsys, "--format", "json", "iso", r3_file, r3_file)
        assert code == 0 and json.loads(out)["isomorphic"]

    def test_enumerate_quandles(self, capsys):
        code, out, _ = run(capsys, "enumerate", "quandles", "3")
        assert code == 0 and len(out.splitlines()) == 5

    def test_enumerate_structures_with_jobs(self, capsys):
        code1, out1, _ = run(capsys, "enumerate", "trivial-structures", "3")
        code2, out2, _ = run(capsys, "--jobs", "2", "enumerate", "trivial-structures", "3")
        assert code1 == code2 == 0 and out1 == out2
        assert len(out1.splitlines()) == 12

    def test_enumerate_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "quandles", "9")
        assert code == 1 and "cap" in err

    @pytest.mark.parametrize("what, ceiling", [("quandles", 6), ("trivial-structures", 5)])
    def test_raised_cap_stops_at_the_ceiling(self, capsys, what, ceiling):
        code, out, err = run(capsys, "--cap-enum", "99", "enumerate", what, "7")
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"ceiling {ceiling}" in err

    def test_cover_check_and_lift(self, capsys, tmp_path, r3_file):
        from helpers import projection_quandle
        from biquandles.structures import constant_structure

        qt = tmp_path / "qt.json"
        qt.write_text(projection_quandle().to_json())
        code, out, _ = run(capsys, "cover", "check", "--total", str(qt), "--base", r3_file, "--map", "0,0,1,1,2,2")
        assert code == 0 and out.strip() == "true"
        st = tmp_path / "st.json"
        st.write_text(constant_structure(dihedral_quandle(3), Permutation.identity(3)).to_json())
        code, out, _ = run(
            capsys, "--format", "json", "cover", "lift",
            "--total", str(qt), "--base", r3_file, "--map", "0,0,1,1,2,2", "--structure", str(st),
        )
        assert code == 0 and json.loads(out)["found"]


# JSON near the quandle, biquandle, structure and group formats: a valid
# document with keys dropped or replaced by small tables or arbitrary values
_REAL = [
    dihedral_quandle(3).to_dict(),
    trivial_quandle(2).to_dict(),
    wada_biquandle(cyclic_group(3)).to_dict(),
    {"base": dihedral_quandle(3).to_dict(), "betas": [[1, 2, 0]] * 3},
    {"n": 2, "mul": [[0, 1], [1, 0]]},
]
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(), st.text(max_size=3),
    st.lists(st.lists(st.integers(-1, 3), max_size=4), max_size=4),
    st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=3, max_size=3),
    st.sampled_from([v for d in _REAL for v in d.values()]),
)
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
_KEYS = st.sampled_from(["n", "table", "under", "over", "base", "betas", "mul"])


@st.composite
def _mutated(draw):
    doc = dict(draw(st.sampled_from(_REAL)))
    for key in draw(st.lists(_KEYS, max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_VALUES)
    return doc


_DOCS = st.one_of(_mutated(), _VALUES)


class TestLoaderFuzz:
    @settings(max_examples=300)
    @given(doc=_DOCS)
    def test_exit_code_and_no_traceback(self, tmp_path_factory, doc):
        wd = tmp_path_factory.getbasetemp()
        f, diagram = wd / "fuzz.json", wd / "fuzz_unknot.txt"
        f.write_text(json.dumps(doc))
        diagram.write_text("= a a\n")
        f = str(f)
        for argv in (
            ("check", f),
            ("aut", "--quandle", f),
            ("aut", "--biquandle", f),
            ("iso", f, f),
            ("ybe", "--biquandle", f),
            ("color", "--diagram", str(diagram), "--structure", f),
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            assert code in (0, 1, 2), (doc, argv)
            assert (code == 0) != err.getvalue().startswith("error:"), (doc, argv, err.getvalue())


def check_documents():
    """Quandle and biquandle files for check: valid, failing each kind of
    axiom, out of range, of mismatched sizes and with a wrong declared n."""
    r3 = dihedral_quandle(3).to_dict()
    r5 = dihedral_quandle(5).table.tolist()
    r5[0][1], r5[2][1] = r5[2][1], r5[0][1]  # column 1 stays a bijection; R2 fails
    wada = wada_biquandle(cyclic_group(3)).to_dict()
    swapped = [row[:] for row in wada["under"]]
    swapped[0][1], swapped[2][1] = swapped[2][1], swapped[0][1]
    return [
        r3,
        {"n": 3, "table": [[0, 1, 1], [2, 1, 0], [1, 0, 2]]},
        {"n": 3, "table": [[1, 2, 1], [2, 1, 0], [1, 0, 2]]},
        {"n": 3, "table": [[0, 2, 5], [2, 1, 0], [-1, 0, 2]]},
        {"n": 5, "table": r5},
        {"n": 5, "table": r3["table"]},
        wada,
        {"n": 3, "under": swapped, "over": wada["over"]},
        {"n": 3, "under": wada["under"], "over": [[0, 0, 0], [1, 1, 1], [2, 2, 2]]},
        {"n": 3, "under": wada["under"], "over": [[0, 1, 7], [1, 2, 0], [2, 0, 1]]},
        {"n": 3, "under": wada["under"], "over": [[0] * 4] * 4},
        {"n": 3, "under": [[0] * 4] * 4, "over": wada["over"]},
    ]


def check_runs(capsys, tmp_path):
    """(exit code, stdout, stderr) of check on every check_documents file,
    in text, with --all-witnesses and as JSON."""
    out = []
    for i, doc in enumerate(check_documents()):
        p = tmp_path / f"{i}.json"
        p.write_text(json.dumps(doc))
        for argv in (("check", str(p)), ("check", str(p), "--all-witnesses"), ("--format", "json", "check", str(p))):
            out.append(run(capsys, *argv))
    return out


class TestCheckCoercion:
    def test_each_table_is_coerced_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        coerce = core.as_table

        def counted(obj, what="table"):
            calls.append(what)
            return coerce(obj, what)

        monkeypatch.setattr(core, "as_table", counted)
        for doc in check_documents():
            p = tmp_path / "doc.json"
            p.write_text(json.dumps(doc))
            calls.clear()
            run(capsys, "check", str(p))
            assert calls == (["table"] if "table" in doc else ["under", "over"]), doc

    def test_output_bytes_are_unchanged(self, capsys, tmp_path):
        # pinned as check printed them when it coerced each table twice
        runs = check_runs(capsys, tmp_path)
        assert [code for code, _, _ in runs].count(2) == 9
        text = repr(runs).replace(str(tmp_path), "<dir>")
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "a79b3128d5638c9e"
