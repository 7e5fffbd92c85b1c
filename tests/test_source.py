"""Properties of the package source itself."""

import ast
import sys
from pathlib import Path

import srbetti

SRC = Path(srbetti.__file__).resolve().parent


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
