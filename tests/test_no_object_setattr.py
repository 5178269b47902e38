"""No module in the package may call object.__setattr__: it writes
through a frozen dataclass, whose values must be final when it is made."""

import ast
from pathlib import Path

import dawcox

SOURCES = sorted(Path(dawcox.__file__).parent.glob("*.py"))


def test_package_sources_do_not_call_object_setattr():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]
    assert found == [], f"object.__setattr__ calls in dawcox: {found}"
