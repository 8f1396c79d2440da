"""Source guards on the package's own code.

Behaviour must not hide in statements ``python -O`` strips, and every error
the package raises must be a typed ``GenSudokuError``.
"""

import ast
from pathlib import Path

import gensudoku

PACKAGE_DIR = Path(gensudoku.__file__).resolve().parent


def package_nodes():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_package():
    found = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_untyped_raises_in_package():
    found = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and raised_name(node) in ("ValueError", "RuntimeError")
    ]
    assert found == []
