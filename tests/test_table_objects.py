"""The table objects share one base: core._TableObject alone defines the
compiled Side accessor, invariants, equality, hashing and the JSON form
of FiniteQuandle, FiniteBiquandle and groups.FiniteGroup, and their JSON
text and repr are pinned byte for byte."""

import ast
import hashlib
import io
import json
import tokenize
from pathlib import Path

import pytest

from biquandles.combinators import holomorph_biquandle
from biquandles.core import FiniteBiquandle, FiniteQuandle, _TableObject
from biquandles.enumeration import enumerate_quandles
from biquandles.group_constructions import alexander_biquandle, dihedral_quandle, wada_biquandle
from biquandles.groups import FiniteGroup, small_groups, symmetric_group

SRC = Path(__file__).resolve().parents[1] / "src" / "biquandles"
MODULES = sorted(SRC.glob("*.py"))
TABLE_CLASSES = ("FiniteQuandle", "FiniteBiquandle", "FiniteGroup")
SHARED = ("_side", "invariants", "__eq__", "__hash__", "to_dict", "from_dict", "to_json", "from_json")


def name_lines(source, name):
    """Lines where the identifier name occurs in code: comments and strings
    do not count."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sorted({tok.start[0] for tok in tokens if tok.type == tokenize.NAME and tok.string == name})


def own_shared_members(source):
    """(line, class, member) for each shared member that a table class
    defines in its own body, by def or by assignment."""
    tree = ast.parse(source)
    found = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in TABLE_CLASSES):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(node.lineno, cls.name, name) for name in names if name in SHARED]
    return sorted(found)


def test_scanner_finds_a_name_in_code_only():
    src = (
        "# _side_of in a comment\n"
        "from .core import _side_of\n"
        "x = '_side_of'\n"
        "def f(obj):\n"
        "    return core._side_of(obj, ())\n"
        "_side_of_tables = 1\n"
    )
    assert name_lines(src, "_side_of") == [2, 5]


def test_scanner_flags_a_shared_member_on_a_table_class():
    src = (
        "class _TableObject:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "class FiniteQuandle(_TableObject):\n"
        "    def op(self, a, b):\n"
        "        return 0\n"
        "    def to_json(self):\n"
        "        return ''\n"
        "class FiniteGroup(_TableObject):\n"
        "    __hash__ = None\n"
        "    @classmethod\n"
        "    def from_dict(cls, d):\n"
        "        return cls(d)\n"
        "class Other:\n"
        "    def _side(self):\n"
        "        return None\n"
    )
    assert own_shared_members(src) == [(7, "FiniteQuandle", "to_json"), (10, "FiniteGroup", "__hash__"), (12, "FiniteGroup", "from_dict")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_side_of(path):
    assert name_lines(path.read_text(), "_side_of") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_table_classes_define_no_shared_member(path):
    assert own_shared_members(path.read_text()) == []


@pytest.mark.parametrize("cls", [FiniteQuandle, FiniteBiquandle, FiniteGroup], ids=lambda c: c.__name__)
def test_shared_members_resolve_to_the_base(cls):
    for name in SHARED:
        assert next(k for k in cls.__mro__ if name in vars(k)) is _TableObject, name


def test_json_and_repr_pinned():
    # sha256 of the text each object printed before the base class existed
    objs = [q for n in range(1, 5) for q in enumerate_quandles(n)]
    objs += [holomorph_biquandle(dihedral_quandle(3)), alexander_biquandle(7, 3, 2), wada_biquandle(symmetric_group(3))]
    text = "".join(f"{o.to_json()}\n{o!r}\n" for o in objs)
    assert len(objs) == 46
    assert hashlib.sha256(text.encode()).hexdigest() == "b74a370875fa767aa2a835caf45e775c33476dd976608b698b000466d0189fd9"
    groups = "".join(json.dumps(g.to_dict()) + "\n" for g in small_groups(8))
    assert hashlib.sha256(groups.encode()).hexdigest() == "64bde800c421bb85a1c36e11ce0e79ca5db71e1008b400513f45f0b299ef1d62"


def test_group_json_round_trip():
    for g in small_groups(12):
        back = FiniteGroup.from_json(g.to_json())
        assert back == g and hash(back) == hash(g)


def test_equality_needs_the_same_class():
    # [[0]] is the table of the one-element quandle and of the trivial group
    q, g = FiniteQuandle([[0]]), FiniteGroup([[0]])
    assert q._tables()[0] is q.table and g._tables()[0] is g.mul
    assert q != g and g != q and q == FiniteQuandle([[0]]) and g == FiniteGroup([[0]], name="other")
    assert q != object() and FiniteQuandle.from_dict(q.to_dict()) == q
