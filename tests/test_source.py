"""Source guards on the package's own code.

Behaviour must not hide in what ``python -O`` strips or reads differently
(``assert``, ``__debug__``, ``sys.flags.optimize``), in the package or in
``reference_data.py``, every error the package raises must be a typed
``GenSudokuError``, no function may recurse, so no input's size is bounded
by the interpreter's recursion limit, the solver certifies by one route,
leaving the others to the tests as oracles, every exported name is used by
the package or the acceptance criteria, only ``run_cli`` writes the CLI's
output, importing the CLI loads no ``typing``, ``dataclasses`` or
``inspect``, and the modules import one way, along one chain, with no
import inside a function.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import gensudoku

PACKAGE_DIR = Path(gensudoku.__file__).resolve().parent


def package_nodes(*extra):
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    modules += extra
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


def optimize_dependent(node):
    """Whether a node is something ``python -O`` strips or reads differently."""
    if isinstance(node, ast.Attribute) and node.attr == "optimize":
        owner = node.value
        return getattr(owner, "attr", getattr(owner, "id", None)) == "flags"
    return isinstance(node, ast.Assert) or (
        isinstance(node, ast.Name) and node.id == "__debug__"
    )


def test_nothing_in_package_or_reference_data_changes_under_python_O():
    # pytest rewrites the asserts of test modules only, so -O would strip
    # an assert in reference_data.py as silently as one in the package.
    reference_data = Path(__file__).with_name("reference_data.py")
    found = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes(reference_data)
        if optimize_dependent(node)
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


OTHER_ROUTES = {"check_necessary", "check_givens", "reconstruct"}


def other_route(node):
    """Whether a problems.py node reaches a certificate besides its own.

    ``solve`` certifies with its one-pass bitmask check and words a failure
    with ``verify_solution``; the rank and matrix routes stay with the tests.
    """
    if isinstance(node, ast.Name):
        return node.id in OTHER_ROUTES
    if isinstance(node, ast.Attribute):
        return node.attr in OTHER_ROUTES
    if isinstance(node, ast.Constant):
        return node.value in OTHER_ROUTES
    if isinstance(node, ast.alias):
        # Importing a checker under its own name is allowed (bench/tracing.py
        # looks them up on the module); star, module and renamed imports are not.
        module = node.name.split(".")[-1]
        return (
            node.name == "*"
            or module in ("condition", "matrices", "gensudoku")
            or (node.name in OTHER_ROUTES and node.asname is not None)
        )
    return False


def test_solver_has_one_certification_route():
    path = PACKAGE_DIR / "problems.py"
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if other_route(node)
    ]
    assert found == []


def referenced_names(path):
    """Names read, attributes taken and names imported in a file.

    A reference inside the top-level def or class of the same name does not
    count, so defining a name is not using it.
    """
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name != owner:
                found.add(name)
    return found


def test_every_export_is_used_by_the_package_or_the_criteria():
    sources = [path for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"]
    sources.append(Path(__file__).with_name("test_acceptance.py"))
    used = set().union(*map(referenced_names, sources))
    exported = {
        name
        for name in gensudoku.__all__
        if not isinstance(getattr(gensudoku, name), types.ModuleType)
    }
    assert sorted(exported - used) == []


def test_only_run_cli_writes_in_the_cli():
    path = PACKAGE_DIR / "cli.py"
    found = [
        f"{top.name}:{node.lineno}"
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(top, ast.FunctionDef) and top.name != "run_cli"
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "print")
        or (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"))
    ]
    assert found == []


def test_importing_the_cli_loads_no_typing():
    # -S keeps site (and whatever it imports) out of the measured process.
    heavy = ("typing", "dataclasses", "inspect")
    code = f"import sys, gensudoku.cli; sys.exit(any(m in sys.modules for m in {heavy}))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    assert subprocess.run([sys.executable, "-S", "-c", code], env=env).returncode == 0


# Each module imports only modules before it: the model (ProblemSpec and
# Assignment, in condition) comes before what verifies, solves, reads and
# prints it.
IMPORT_CHAIN = ("errors", "permutations", "matrices", "condition", "problems", "puzzle_io", "cli")


def test_imports_run_one_way_and_never_inside_a_function():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{inner.lineno} imports inside {node.name}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
            elif isinstance(node, ast.ImportFrom) and node.level and module != "__init__":
                earlier = IMPORT_CHAIN[: IMPORT_CHAIN.index(module)]
                if node.module not in earlier:
                    found.append(f"{path.name}:{node.lineno} imports .{node.module}")
    assert found == []
