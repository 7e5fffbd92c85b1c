"""Properties of the package source itself."""

import ast
import re
import sys
from pathlib import Path

import srbetti

SRC = Path(srbetti.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]


def _assert_nodes(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_no_behaviour_depends_on_assert():
    # python -O strips assert statements, and a bare AssertionError carries
    # no context: every check raises a named error instead
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in _assert_nodes(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_scan_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise AssertionError\n")
    assert [what for _, what in _assert_nodes(tree)] == [
        "assert statement",
        "raise AssertionError",
        "raise AssertionError",
    ]


def _foreign_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != "srbetti":
                yield node.lineno, name


def test_runtime_imports_only_the_standard_library():
    # the package runs on a bare interpreter: every absolute import names a
    # standard-library module or srbetti itself (relative imports are fine)
    found = [
        f"{path.name}:{line}: import {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _foreign_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_import_scan_sees_every_form():
    tree = ast.parse(
        "import numpy.linalg\nfrom sympy import Matrix\nimport os, hypothesis\n"
        "from . import linalg\nfrom .errors import NotAComplex\nimport srbetti.tor\n"
        "from __future__ import annotations\n"
    )
    assert list(_foreign_imports(tree)) == [
        (1, "numpy.linalg"),
        (2, "sympy"),
        (3, "hypothesis"),
    ]


def _unread_parameters(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            for p in params:
                if p.arg not in read and p.arg not in ("self", "cls"):
                    yield node.lineno, getattr(node, "name", "<lambda>"), p.arg


def test_every_parameter_is_read():
    # a parameter that the body never reads promises an effect that does not
    # exist (a field argument to a field-free check, say): remove it
    found = [
        f"{path.name}:{line}: {name}({param})"
        for path in sorted(SRC.glob("*.py"))
        for line, name, param in _unread_parameters(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_parameter_scan_sees_every_form():
    tree = ast.parse(
        "def used(a, *args, b=1, **kw):\n    return a + b + len(args) + len(kw)\n"
        "def nested(x, y):\n    def inner():\n        return x\n    return inner\n"
        "class C:\n    def method(self, z): pass\n    @classmethod\n    def make(cls): pass\n"
        "async def fetch(url, /, timeout, *, retries, **opts): return url\n"
        "key = lambda item, unused: item\n"
    )
    assert {(name, param) for _, name, param in _unread_parameters(tree)} == {
        ("nested", "y"),
        ("method", "z"),
        ("fetch", "timeout"),
        ("fetch", "retries"),
        ("fetch", "opts"),
        ("<lambda>", "unused"),
    }


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.lineno, node.name


_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                yield from node.value.split(".")


def test_every_definition_is_referenced():
    # a function, method or class that no code, test or benchmark names is
    # dead weight: delete it or give it a test (dunders are called implicitly)
    used = {
        name
        for tree in ("src", "tests", "perfbench")
        for path in sorted((REPO / tree).rglob("*.py"))
        for name in _references(ast.parse(path.read_text(), str(path)))
    }
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _definitions(ast.parse(path.read_text(), str(path)))
        if name not in used
    ]
    assert found == []


def test_the_dead_definition_scan_sees_every_form():
    defs = ast.parse(
        "def called(): pass\ndef attr(): pass\nclass Imported:\n"
        "    def method(self): pass\n    def __repr__(self): pass\n"
        "def dotted(): pass\ndef aliased(): pass\ndef dead(): pass\n"
    )
    uses = ast.parse(
        "called()\nobj.attr\nfrom pkg import Imported\nimport pkg.aliased as other\n"
        "WRAPPED = [('mod', 'Imported.method'), ('mod', 'dotted')]\n"
        "text = 'dead code, not a name'\n"
    )
    used = set(_references(uses))
    assert [name for _, name in _definitions(defs)] == [
        "called", "attr", "Imported", "dotted", "aliased", "dead", "method"
    ]
    assert [name for _, name in _definitions(defs) if name not in used] == ["dead"]
