"""Spans around calls into each layer of the package, kept in memory.

The tracer wraps every public function at the name its caller looks it up
under (a module attribute or a class attribute), records per (parent span,
span) pair the calls, inclusive seconds and self seconds (inclusive minus
the time covered by child spans), and adds per-call observations such as
nodes or matrix rows.  A name that does not exist is recorded as absent.
``Permutation.__call__`` is counted, not timed, and only when asked: a span
per call would swamp the figures it is meant to explain.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter


def _nodes(args, result):
    return {"nodes": getattr(result, "nodes_explored", 0), "solutions": len(getattr(result, "solutions", ()))}


def _accepted(args, result):
    return {"accepted": int(bool(getattr(result, "ok", False)))}


def _rows(args, result):
    return {"rows": getattr(args[0], "row_count", 0)}


# (span name, module, attribute path, observation)
TARGETS = (
    ("cli.run_cli", "gensudoku.cli", "run_cli", None),
    ("puzzle_io.load", "gensudoku.cli", "load_problem", None),
    ("puzzle_io.load", "gensudoku.cli", "load_puzzle", None),
    ("puzzle_io.render", "gensudoku.cli", "render_tableau", None),
    ("problems.solve", "gensudoku.problems", "solve", _nodes),
    ("problems.solve", "gensudoku.cli", "solve", _nodes),
    ("problems.brute", "gensudoku.problems", "brute_force", _nodes),
    ("problems.brute", "gensudoku.cli", "brute_force", _nodes),
    ("problems.verify", "gensudoku.problems", "verify_solution", _accepted),
    ("problems.verify", "gensudoku.cli", "verify_solution", _accepted),
    ("problems.groups", "gensudoku.problems", "ProblemSpec.constraint_groups", None),
    ("problems.matrices", "gensudoku.problems", "ProblemSpec.constraint_matrices", None),
    ("problems.spec", "gensudoku.problems", "make_classic_spec", None),
    ("problems.spec", "gensudoku.problems", "make_latin_spec", None),
    ("problems.spec", "gensudoku.problems", "make_gerechte_spec", None),
    ("problems.spec", "gensudoku.puzzle_io", "make_classic_spec", None),
    ("problems.spec", "gensudoku.puzzle_io", "make_latin_spec", None),
    ("problems.spec", "gensudoku.puzzle_io", "make_gerechte_spec", None),
    ("condition.check_necessary", "gensudoku.problems", "check_necessary", None),
    ("condition.check_necessary", "gensudoku.cli", "check_necessary", None),
    ("condition.check_givens", "gensudoku.problems", "check_givens", None),
    ("matrices.build", "gensudoku.problems", "build_constraint_matrix", None),
    ("matrices.apply", "gensudoku.matrices", "ConstraintMatrix.apply", _rows),
    ("matrices.apply_transpose", "gensudoku.matrices", "ConstraintMatrix.apply_transpose", _rows),
    ("permutations.construct", "gensudoku.problems", "identity_permutation", None),
    ("permutations.construct", "gensudoku.problems", "transpose_permutation", None),
    ("permutations.construct", "gensudoku.problems", "block_permutation", None),
    ("permutations.construct", "gensudoku.problems", "partition_permutation", None),
)
COUNTED = ("gensudoku.permutations", "Permutation.__call__")


class Tracer:
    """Installs wrappers on the package and aggregates their spans."""

    def __init__(self):
        # (parent span name or None, span name) -> {"calls", "incl_s", "self_s", ...}
        self.spans = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.permutation_calls = 0
        self._stack: list[list] = []  # [span name, seconds covered by children]
        self._undo: list[tuple] = []

    def install(self, count_permutation_calls: bool = False) -> None:
        for name, module, path, observe in TARGETS:
            self._patch(module, path, lambda fn, n=name, o=observe: self._span(n, fn, o))
        if count_permutation_calls:
            self._patch(*COUNTED, self._counter)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.permutation_calls = 0

    def _patch(self, module: str, path: str, make) -> None:
        owner = sys.modules.get(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = None if owner is None else vars(owner).get(attr)
        if not callable(original):
            if f"{module}.{path}" not in self.absent:
                self.absent.append(f"{module}.{path}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, name: str, fn, observe):
        stack = self._stack
        spans = self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = spans[(parent, name)]
                entry["calls"] += 1
                entry["incl_s"] += elapsed
                entry["self_s"] += elapsed - frame[1]
                if observe is not None:
                    for key, value in observe(args, result).items():
                        entry[key] += value

        return traced

    def _counter(self, fn):
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            tracer.permutation_calls += 1
            return fn(*args, **kwargs)

        return counted

    def total(self, name: str, field: str, parent: str | None = "*") -> float:
        """Sum of ``field`` over spans called ``name`` (under ``parent``)."""
        return sum(
            entry[field]
            for (p, n), entry in self.spans.items()
            if n == name and (parent == "*" or p == parent)
        )

    def counts(self) -> dict:
        """Every machine-independent figure: calls and observations per span pair."""
        return {
            f"{parent}>{name}": {k: v for k, v in entry.items() if not k.endswith("_s")}
            for (parent, name), entry in sorted(self.spans.items(), key=str)
        }
