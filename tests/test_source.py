"""Source guards: behaviour must not hide in statements ``python -O`` strips."""

import ast
from pathlib import Path

import gensudoku

PACKAGE_DIR = Path(gensudoku.__file__).resolve().parent


def test_no_assert_statements_in_package():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
