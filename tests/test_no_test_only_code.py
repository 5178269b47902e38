"""No function, method, class or class field in the package exists only
for the tests: each one is used somewhere else in the package or by the
benchmark (bench/*.py).  Code that only the tests call belongs in the
tests.

A method or a field (an annotated name in a class body: a dataclass or
NamedTuple field) counts as used only where an attribute of that name is
read or a benchmark string names it: a bare name of the same spelling (a
local variable, a parameter, a constructor keyword) does not reach it."""

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


def _uses(root, docstrings) -> tuple[Counter, Counter, Counter]:
    """Every name that the code under root reads, by how it reads it: bare
    and imported names, attributes, and the words of its string literals
    (the benchmark names the functions it wraps in strings)."""
    names, attrs, words = Counter(), Counter(), Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            words.update(re.findall(r"\w+", node.value))
    return names, attrs, words


def _parse(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return tree, _docstrings(tree)


def _methods(tree) -> set:
    """The ids of the functions defined directly in a class body."""
    return {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _fields(tree) -> list:
    """The annotated names of the class bodies, as (line, name)."""
    return [
        (item.lineno, item.target.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def test_package_has_no_test_only_code():
    assert SOURCES and BENCH
    every, reach = Counter(), Counter()
    defs, fields = [], []
    for path in SOURCES + BENCH:
        tree, docstrings = _parse(path)
        names, attrs, words = _uses(tree, docstrings)
        every += names + attrs + words
        reach += attrs + (words if path in BENCH else Counter())
        methods = _methods(tree)
        defs += [
            (path.name, node, docstrings, id(node) in methods)
            for node in ast.walk(tree)
            if path in SOURCES and isinstance(node, _DEFS) and not node.name.startswith("__")
        ]
        if path in SOURCES:
            fields += [(path.name, line, name) for line, name in _fields(tree)]

    def used(node, docstrings, is_method) -> int:
        # a use inside the definition itself (recursion) does not count
        names, attrs, words = _uses(node, docstrings)
        if is_method:
            return reach[node.name] - attrs[node.name]
        return every[node.name] - (names + attrs + words)[node.name]

    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, node, docstrings, is_method in defs
        if not used(node, docstrings, is_method)
    ] + [f"{path}:{line} {name}" for path, line, name in fields if not reach[name]]
    assert unused == [], f"used only by the tests: {unused}"


def test_the_guard_sees_class_fields():
    tree = ast.parse("class A:\n    x: int\n    y: str = ''\n    z = 1\n\n    def f(self): pass\n")
    assert [name for _, name in _fields(tree)] == ["x", "y"]
