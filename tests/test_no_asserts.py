"""No check in the package may depend on an assert statement: python -O
drops them, and a verifier that stops checking must not report "pass"."""

import ast
from pathlib import Path

import dawcox

SOURCES = sorted(Path(dawcox.__file__).parent.glob("*.py"))


def test_package_sources_have_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in dawcox: {found}"
