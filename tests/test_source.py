"""Source guards on the package's own code.

Behaviour must not hide in statements ``python -O`` strips, every error the
package raises must be a typed ``GenSudokuError``, and no function may
recurse, so no input's size is bounded by the interpreter's recursion limit.
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


def called_name(node):
    callee = node.func
    if isinstance(callee, ast.Name):
        return callee.id
    if (
        isinstance(callee, ast.Attribute)
        and isinstance(callee.value, ast.Name)
        and callee.value.id in ("self", "cls")
    ):
        return callee.attr
    return None


def test_no_recursive_functions_in_package():
    found = [
        f"{name}: {func.name}"
        for name, func in package_nodes()
        if isinstance(func, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and called_name(node) == func.name
            for node in ast.walk(func)
        )
    ]
    assert found == []
