"""No function, method or class in the package exists only for the tests:
each one is used somewhere else in the package or by the benchmark
(bench/*.py).  Code that only the tests call belongs in the tests."""

import ast
import re
from collections import Counter
from pathlib import Path

import dawcox

SOURCES = sorted(Path(dawcox.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree) -> set:
    """The ids of the docstring nodes, which mention names without using them."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFS))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _uses(root, docstrings) -> Counter:
    """Every name that the code under root reads: names, attributes,
    imported names, and the words of its string literals (the benchmark
    names the functions it wraps in strings)."""
    out = Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(re.findall(r"\w+", node.value))
    return out


def _parse(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return tree, _docstrings(tree)


def test_package_has_no_test_only_code():
    assert SOURCES and BENCH
    uses = Counter()
    defs = []
    for path in SOURCES:
        tree, docstrings = _parse(path)
        uses += _uses(tree, docstrings)
        defs += [
            (path.name, node, docstrings)
            for node in ast.walk(tree)
            if isinstance(node, _DEFS) and not node.name.startswith("__")
        ]
    for path in BENCH:
        uses += _uses(*_parse(path))
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, node, docstrings in defs
        # a use inside the definition itself (recursion) does not count
        if uses[node.name] == _uses(node, docstrings)[node.name]
    ]
    assert unused == [], f"used only by the tests: {unused}"
