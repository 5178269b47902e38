"""Rationals are put over one common denominator in one place,
rootsys.clear_denominators: no other code in the package writes the idiom
x.numerator * (d // x.denominator) out by hand."""

import ast
from pathlib import Path

import dawcox

SOURCES = sorted(Path(dawcox.__file__).parent.glob("*.py"))
HELPER = "clear_denominators"


def _is_idiom(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.left, ast.Attribute)
        and node.left.attr == "numerator"
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.FloorDiv)
        and isinstance(node.right.right, ast.Attribute)
        and node.right.right.attr == "denominator"
    )


def _idioms(source: str) -> tuple[list[int], list[int]]:
    """The lines of the idiom inside the helper and outside it."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == HELPER
        for node in ast.walk(fn)
    }
    found = [node for node in ast.walk(tree) if _is_idiom(node)]
    return (
        [node.lineno for node in found if id(node) in inside],
        [node.lineno for node in found if id(node) not in inside],
    )


def test_only_the_helper_clears_denominators():
    assert SOURCES
    helper, elsewhere = [], []
    for path in SOURCES:
        inside, outside = _idioms(path.read_text())
        helper += inside
        elsewhere += [f"{path.name}:{line}" for line in outside]
    assert elsewhere == [], f"denominators cleared by hand: {elsewhere}"
    assert len(helper) == 1


def test_the_guard_sees_the_idiom():
    body = "    return [x.numerator * (d // x.denominator) for x in xs]\n"
    assert _idioms(f"def {HELPER}(xs, d):\n{body}") == ([2], [])
    assert _idioms(f"def other(xs, d):\n{body}") == ([], [2])
    assert _idioms("def other(xs, d):\n    return [x.numerator * d for x in xs]\n") == ([], [])
