"""Properties of the package source itself."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import srbetti
from srbetti.betti import betti_table
from srbetti.cohomology import reduced_cohomology_dims
from srbetti.coloring import greedy_coloring
from srbetti.corpus import cycle_complex, rp2_complex
from srbetti.linalg import GF2, GF3, QQ
from srbetti.tor import quotient_cohomology_dims, tor_dims, verify_tor_threeway

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


def _package_imports(tree: ast.AST):
    for node in ast.walk(tree):  # function bodies too
        if isinstance(node, ast.ImportFrom):
            names = [node.module or alias.name for alias in node.names]
            prefix = "" if node.level else "srbetti."
        elif isinstance(node, ast.Import):
            names, prefix = [alias.name for alias in node.names], "srbetti."
        else:
            continue
        for name in names:
            if name.startswith(prefix):
                yield node.lineno, name.removeprefix(prefix).split(".")[0]


def test_the_package_has_no_import_cycle():
    # an import cycle, even one deferred into a function body, means two
    # modules each need the other: the one below must not know the one above
    graph = {
        path.stem: {name for _, name in _package_imports(ast.parse(path.read_text(), str(path)))}
        for path in sorted(SRC.glob("*.py"))
    }
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as err:
        pytest.fail("import cycle: " + " -> ".join(err.args[1]))


def test_the_package_import_scan_sees_every_form():
    tree = ast.parse(
        "import os\nfrom . import linalg, errors\nimport srbetti.tor\n"
        "from srbetti.betti import betti_table\nfrom .complexes import _within\n"
        "def f():\n    from .cohomology import reduced_cochain_complex\n"
        "from sympy import Matrix\nfrom __future__ import annotations\n"
    )
    assert sorted(_package_imports(tree)) == [
        (2, "errors"),
        (2, "linalg"),
        (3, "tor"),
        (4, "betti"),
        (5, "complexes"),
        (7, "cohomology"),
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


def _prints(tree: ast.AST, scope: str = ""):
    """(line, the top-level function or class around it, or "") of every print call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            yield node.lineno, scope
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _prints(node, node.name if named and not scope else scope)


def test_only_cli_main_prints():
    # main writes stdout and stderr; every other function returns what it has
    # to say, so a JSON run renders no text view and a library call prints nothing
    found = [
        f"{path.name}:{line}: print in {scope or 'module'}"
        for path in sorted(SRC.glob("*.py"))
        for line, scope in _prints(ast.parse(path.read_text(), str(path)))
        if (path.name, scope) != ("cli.py", "main")
    ]
    assert found == []


def test_the_print_scan_sees_every_form():
    tree = ast.parse(
        "print('top')\ndef main():\n    print(1)\n    def inner():\n        print(2)\n"
        "class C:\n    def m(self):\n        return [print(x) for x in self]\n"
        "async def f():\n    lambda: print()\nif x:\n    print(file=y)\n"
        "def other():\n    out.print(3)\n    pprint(4)\n"
    )
    assert list(_prints(tree)) == [
        (1, ""), (3, "main"), (5, "main"), (8, "C"), (10, "f"), (12, "")
    ]


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


def _characteristic_reads(tree: ast.Module):
    """(line, the top-level function or class around it, or "", whether in its
    last statement) of every ``.p`` attribute and ``getattr(..., "p")``."""
    for top in tree.body:
        named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        last = set(ast.walk(top.body[-1])) if named else set()
        for node in ast.walk(top):
            call = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
            if (isinstance(node, ast.Attribute) and node.attr == "p") or (
                call and len(node.args) > 1 and getattr(node.args[1], "value", None) == "p"
            ):
                yield node.lineno, top.name if named else "", node in last


def test_the_characteristic_is_read_only_to_count():
    # one elimination over ℤ serves every field: outside FieldSpec only the
    # final count of rank reads p, so no per-field elimination can come back
    reads = {
        path.name: sorted(_characteristic_reads(ast.parse(path.read_text(), str(path))))
        for path in sorted(SRC.glob("*.py"))
    }
    found = [
        f"{name}:{line}: {scope or 'module'}"
        for name, found_in in reads.items()
        for line, scope, last in found_in
        if name != "linalg.py" or not (scope == "FieldSpec" or (scope == "rank" and last))
    ]
    assert found == []
    assert {(scope, last) for _, scope, last in reads["linalg.py"]} >= {("rank", True)}


def test_the_characteristic_scan_sees_every_form():
    tree = ast.parse(
        "class FieldSpec:\n    def name(self):\n        return self.p\n"
        "def rank(M, f):\n    p = f.p\n    return getattr(f, 'p')\n"
        "key = lambda f: f.field.p\n"
        "def other(f):\n    def inner():\n        return f.p % 2\n    return inner\n"
        "x.p = 3\nFieldSpec.parse('q').pp\ngetattr(f, 'q')\n"
    )
    assert sorted(_characteristic_reads(tree)) == [
        (3, "FieldSpec", True),
        (5, "rank", False),
        (6, "rank", True),
        (7, "", False),
        (10, "other", False),
        (12, "", False),
    ]


# caches that hold no rank result: the combinatorics of (K, α) and the CLI parser
_RANK_FREE_CACHES = {"tor._context", "cli._parser"}


def _functools_caches():
    """module.name ↦ every functools cache defined at the top level of a
    srbetti module or in one of its classes."""
    found = {}
    for info in pkgutil.iter_modules(srbetti.__path__):
        module = importlib.import_module(f"srbetti.{info.name}")
        owners = [(info.name, module)] + [
            (f"{info.name}.{name}", value)
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for prefix, owner in owners:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                    found[f"{prefix}.{name}"] = value
    return found


def test_cache_clear_empties_every_cache_of_rank_results():
    # reduced_cohomology_dims.cache_clear() must drop every rank-derived
    # result: a cache of ranks that skips rank_cache would keep a wrong rank
    K = cycle_complex(4)
    alpha = greedy_coloring(K)
    verify_tor_threeway(K, alpha, QQ)
    tor_dims(K, alpha, QQ)
    quotient_cohomology_dims(K, alpha, QQ)
    betti_table(K, QQ)
    caches = _functools_caches()
    assert _RANK_FREE_CACHES <= set(caches)
    filled = {name for name, cache in caches.items() if cache.cache_info().currsize}
    assert {"tor._e0_sweep", "cohomology.reduced_cohomology_dims"} <= filled
    reduced_cohomology_dims.cache_clear()
    kept = {name for name, cache in caches.items() if cache.cache_info().currsize}
    assert kept - _RANK_FREE_CACHES == set()


def test_the_tables_of_further_fields_add_no_cache_entry():
    # each ω is kept once for every field: after the ℚ table of K, those over
    # GF(2) and GF(3), which differ from it on RP², store nothing new, and
    # equal the tables computed from cleared caches
    K = rp2_complex()
    reduced_cohomology_dims.cache_clear()
    betti_table(K, QQ)
    caches = _functools_caches()
    sizes = {name: cache.cache_info().currsize for name, cache in caches.items()}
    tables = {f: betti_table(K, f).entries for f in (GF2, GF3)}
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == sizes
    assert tables[GF2] != tables[GF3]
    for f, entries in tables.items():
        reduced_cohomology_dims.cache_clear()
        assert betti_table(K, f).entries == entries, f


def test_importing_the_cli_starts_no_process_pool_machinery():
    # only `corpus --jobs N` with N > 1 needs the pool; importing it at start-up
    # pulls in multiprocessing, socket and pickle for every command
    code = (
        "import sys, srbetti.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
