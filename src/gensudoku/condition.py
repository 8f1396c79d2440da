"""The model, a problem and an assignment, and its reconstruction identity.

Every in-range assignment whose constraint differences are all nonzero can
be recovered from the signs of those differences alone:

    x = (A^T sgn(A x) + (n+1) * 1) / 2

applied per constraint permutation.  This module provides the model's
problem (``ProblemSpec``) and assignment (``Assignment``), the sign
function, two independent scalar routes to the column sums (a brute-force
double sum and its closed form), the reconstruction map, and report-style
checkers that treat violations as data rather than exceptions.

``check_necessary`` takes the closed form's route: it reads the spec's
compiled groups and ranks each one, never building a matrix, and
``check_givens`` reads its reports.  The matrix route (``reconstruct``)
stays the public reference they are tested against.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from .errors import (
    DimensionError,
    InputTypeError,
    NotApplicableError,
    ParityError,
    Record,
    SpecError,
    as_ints,
    as_tuple,
    as_tuples,
    require_instance,
    require_int,
)
from .matrices import ConstraintMatrix, build_constraint_matrix, vanishing_rows
from .permutations import Permutation


class Assignment(Record):
    """Candidate cell values, tableau row-major, length n^2.

    ``n`` and every cell must be an int, not a ``bool``; anything else
    raises InputTypeError, so every check compares and shifts ints.
    """

    __match_args__ = ("n", "cells")

    def __init__(self, n: int, cells: tuple[int, ...]):
        require_int("n", n)
        cells = as_tuple("cells", cells)
        if not {int}.issuperset(map(type, cells)):
            i, value = next((i, v) for i, v in enumerate(cells, 1) if type(v) is not int)
            raise InputTypeError(f"cell {i} must be an int, got {type(value).__name__}")
        if len(cells) != n * n:
            raise DimensionError(f"expected {n * n} cells, got {len(cells)}")
        object.__setattr__(self, "n", n)  # built per solution, so without a _set call
        object.__setattr__(self, "cells", cells)


class ProblemSpec(Record):
    """Grid size, constraint permutations and (cell, value) givens of one puzzle.

    A field of the wrong type (an ``n`` or given that is not an int, a
    constraint that is not a Permutation) raises InputTypeError; a value
    out of range, SpecError.
    """

    __match_args__ = ("n", "constraints", "givens")

    def __init__(self, n: int, constraints: tuple[Permutation, ...], givens: tuple = ()):
        require_int("n", n)
        constraints = as_tuple("constraints", constraints)
        givens = as_tuples("givens", givens)
        if n < 2:
            raise SpecError(f"n must be >= 2, got {n}")
        if not constraints:
            raise SpecError("at least one constraint permutation is required")
        for perm in constraints:
            require_instance("a constraint", perm, Permutation)
            if perm.size != n * n:
                raise SpecError(f"constraint permutation size {perm.size} != n^2 = {n * n}")
        seen = set()
        for given in givens:
            if len(given) != 2:
                raise SpecError(f"given {given!r} is not a (cell, value) pair")
            cell, value = given
            if type(cell) is not int or type(value) is not int:
                raise InputTypeError(f"given {given!r} does not hold two ints")
            if not 1 <= cell <= n * n:
                raise SpecError(f"given cell {cell} outside 1..{n * n}")
            if not 1 <= value <= n:
                raise SpecError(f"given value {value} outside 1..{n}")
            if cell in seen:
                raise SpecError(f"duplicate given for cell {cell}")
            seen.add(cell)
        self._set(n, constraints, givens)

    @cached_property
    def compiled_groups(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per constraint: the n groups of n cells its blocks tie together.

        Cells are 0-based indices into ``Assignment.cells``; group b of a
        constraint is the cells its permutation sends block b's columns to.
        Built on first use and kept for the life of the spec, so every
        check and search on the spec shares one copy.
        """
        n = self.n
        cells = [image - 1 for perm in self.constraints for image in perm.images]
        groups = [tuple(cells[k : k + n]) for k in range(0, len(cells), n)]
        return tuple(tuple(groups[k : k + n]) for k in range(0, len(groups), n))

    def constraint_matrices(self) -> list[ConstraintMatrix]:
        return [build_constraint_matrix(self.n, perm) for perm in self.constraints]

    def constraint_groups(self) -> list[list[tuple[int, ...]]]:
        """Per constraint: the n groups of n cells its blocks tie together, 1-based."""
        return [
            [tuple(cell + 1 for cell in group) for group in groups]
            for groups in self.compiled_groups
        ]

    @cached_property
    def distinct_groups(self) -> tuple[tuple[int, ...], ...]:
        """``compiled_groups`` with repeats dropped, in constraint order.

        A group two constraints list (Latin's columns) restricts nothing
        more and is kept once, at its first place.  The certificate and
        ``solve`` read only this; ``solve`` builds its group and peer masks
        from it in its own set-up sweep.
        """
        return tuple(dict.fromkeys(g for per in self.compiled_groups for g in per))


def gsgn(y: Sequence[int]) -> tuple[int, ...]:
    """Componentwise sign; defined only when no component is zero.

    A component that is not an int raises InputTypeError.
    """
    y = as_ints("y", y)
    out = []
    for idx, val in enumerate(y, start=1):
        if val == 0:
            raise NotApplicableError(idx)
        out.append(1 if val > 0 else -1)
    return tuple(out)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def pairwise_sign_sum(x: Sequence[int], i: int) -> int:
    """Double-sum route to component i of A^T sgn(A x), matrix-free.

    Computed directly as -sum_{j<i} sgn(x_j - x_i) + sum_{j>i} sgn(x_i - x_j);
    serves as the independent oracle for the matrix route.  A component of
    x, or an i, that is not an int raises InputTypeError.
    """
    x = as_ints("x", x)
    require_int("i", i)
    n = len(x)
    if not 1 <= i <= n:
        raise DimensionError(f"index {i} outside 1..{n}")
    for a in range(n):
        for b in range(a + 1, n):
            if x[a] == x[b]:
                raise NotApplicableError(b + 1)
    xi = x[i - 1]
    return -sum(_sign(x[j] - xi) for j in range(i - 1)) + sum(
        _sign(xi - x[j]) for j in range(i, n)
    )


def sign_sum_closed_form(value: int, n: int) -> int:
    """Closed form of the pairwise sign sum when x is a permutation of 1..n."""
    require_int("value", value)
    require_int("n", n)
    return 2 * value - (n + 1)


def reconstruct(matrix: ConstraintMatrix, x: Sequence[int]) -> tuple[int, ...]:
    """Recover cell values from the signs of their constraint differences.

    Returns (A^T sgn(A x) + (n+1) * 1) / 2 in exact integers.  Equals x
    whenever every group of the matrix holds distinct values in 1..n.  A
    matrix that is not a ConstraintMatrix, or a component of x that is not
    an int, raises InputTypeError.
    """
    require_instance("matrix", matrix, ConstraintMatrix)
    signs = gsgn(matrix.apply(x))
    sums = matrix.apply_transpose(signs)
    doubled = tuple(s + matrix.n + 1 for s in sums)
    for idx, val in enumerate(doubled, start=1):
        if val % 2 != 0:
            raise ParityError(idx, val)
    return tuple(val // 2 for val in doubled)


def _checked_cells(problem: ProblemSpec, x: Assignment) -> tuple[int, ...]:
    """The cells of x, after the type checks and the length check the
    constraint matrices make."""
    require_instance("problem", problem, ProblemSpec)
    require_instance("x", x, Assignment)
    size = problem.n * problem.n
    if len(x.cells) != size:
        raise DimensionError(f"expected length {size}, got {len(x.cells)}")
    return x.cells


class NecessityReport(Record):
    """Outcome of the reconstruction identity for one constraint.

    ``first_violation`` is (cell index, expected, actual).  ``holds`` is
    true exactly when no difference vanished and the reconstruction equals
    the assignment componentwise.  When some did, ``zero_rows`` lists them
    and ``reconstructed`` and ``first_violation`` are None.
    """

    __match_args__ = ("constraint_id", "holds", "reconstructed", "first_violation", "zero_rows")

    def __init__(self, constraint_id, holds, reconstructed, first_violation, zero_rows):
        self._set(constraint_id, holds, reconstructed, first_violation, zero_rows)


def check_necessary(problem: ProblemSpec, x: Assignment) -> list[NecessityReport]:
    """Run the reconstruction identity against every constraint.

    Violations are reported, never raised; one report per constraint in the
    problem's order.  A problem that is not a ProblemSpec, or an x that is
    not an Assignment, raises InputTypeError.  Each group is ranked, not
    multiplied out: for distinct values the sign sum of a cell is
    2s - (n-1), s the number of smaller values in its group, so the
    reconstructed value is s + 1.  A group that is a permutation of 1..n
    therefore reconstructs to itself (``sign_sum_closed_form``).  When a
    group holds a duplicate the constraint's reconstruction is undefined
    and its report lists the vanishing rows of every such group.
    """
    cells = _checked_cells(problem, x)
    n = problem.n
    identity = list(range(1, n + 1))
    reports = []
    for constraint_id, groups in enumerate(problem.compiled_groups, start=1):
        rec = list(cells)
        zero_rows: list[int] = []
        for block, group in enumerate(groups):
            values = [cells[c] for c in group]
            ranked = sorted(values)
            if ranked == identity:
                continue
            if len(set(ranked)) < n:
                zero_rows.extend(vanishing_rows(values, block))
            else:
                rank = {v: r for r, v in enumerate(ranked, start=1)}
                for c, v in zip(group, values):
                    rec[c] = rank[v]
        if zero_rows:
            reports.append(
                NecessityReport(constraint_id, False, None, None, tuple(zero_rows))
            )
            continue
        rec = tuple(rec)
        violation = None
        if rec != cells:
            violation = next(
                (i, expected, actual)
                for i, (expected, actual) in enumerate(zip(rec, cells), start=1)
                if expected != actual
            )
        reports.append(
            NecessityReport(constraint_id, violation is None, rec, violation, ())
        )
    return reports


class GivensReport(Record):
    """Whether the reconstructed values match the problem's givens.

    ``mismatch`` is (constraint_id, cell index, expected given, reconstructed)
    for the first failure, None when everything matches.
    """

    __match_args__ = ("ok", "mismatch")

    def __init__(self, ok: bool, mismatch: tuple[int, int, int, int] | None):
        self._set(ok, mismatch)


def check_givens(problem: ProblemSpec, x: Assignment) -> GivensReport:
    """Check every given cell against its reconstruction, per constraint.

    Reads ``check_necessary``'s reports.  Raises NotApplicableError, indexed
    by the first vanishing row, when a constraint's differences vanish.
    """
    for report in check_necessary(problem, x):
        if report.zero_rows:
            raise NotApplicableError(report.zero_rows[0])
        for cell, given in problem.givens:
            actual = report.reconstructed[cell - 1]
            if actual != given:
                return GivensReport(False, (report.constraint_id, cell, given, actual))
    return GivensReport(True, None)
