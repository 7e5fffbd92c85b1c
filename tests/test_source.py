"""Properties of the package source itself."""

import ast
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
