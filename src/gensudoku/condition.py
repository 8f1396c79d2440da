"""The generalized sign function and the reconstruction identity.

Every in-range assignment whose constraint differences are all nonzero can
be recovered from the signs of those differences alone:

    x = (A^T sgn(A x) + (n+1) * 1) / 2

applied per constraint permutation.  This module provides the sign
function, two independent scalar routes to the column sums (a brute-force
double sum and its closed form), the reconstruction map, and report-style
checkers that treat violations as data rather than exceptions.

``check_necessary`` takes the closed form's route: it reads the spec's
compiled groups and ranks each one, never building a matrix, and
``check_givens`` reads its reports.  The matrix route (``reconstruct``)
stays the public reference they are tested against.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .errors import (
    DimensionError,
    InputTypeError,
    NotApplicableError,
    ParityError,
    as_ints,
    as_tuple,
    require_instance,
    require_int,
)
from .matrices import ConstraintMatrix, triangular_sum


@dataclass(frozen=True)
class Assignment:
    """Candidate cell values, tableau row-major, length n^2.

    ``n`` and every cell must be an int, not a ``bool``; anything else
    raises InputTypeError, so every check compares and shifts ints.
    """

    n: int
    cells: tuple[int, ...]

    def __post_init__(self):
        require_int("n", self.n)
        cells = as_tuple("cells", self.cells)
        object.__setattr__(self, "cells", cells)
        if not {int}.issuperset(map(type, cells)):
            i, value = next((i, v) for i, v in enumerate(cells, 1) if type(v) is not int)
            raise InputTypeError(f"cell {i} must be an int, got {type(value).__name__}")
        if len(cells) != self.n * self.n:
            raise DimensionError(
                f"expected {self.n * self.n} cells, got {len(cells)}"
            )


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


def vanishing_rows(values: Sequence[int], block: int) -> Iterator[int]:
    """Yield, ascending, the 1-based constraint matrix rows that vanish in a block.

    ``values`` are the cell values of the constraint's group ``block``
    (0-based).  The block holds one row per pair (p, m), p < m, in
    lexicographic order, so the row of a pair is block * n(n-1)/2 plus the
    pair's lexicographic index, plus 1; it vanishes when the pair's values
    are equal.
    """
    n = len(values)
    row = block * triangular_sum(n)
    for p in range(n):
        for m in range(p + 1, n):
            row += 1
            if values[p] == values[m]:
                yield row


def _checked_cells(problem: "ProblemSpec", x: Assignment) -> tuple[int, ...]:
    """The cells of x, after the type checks and the length check the
    constraint matrices make."""
    from .problems import ProblemSpec  # problems imports this module

    require_instance("problem", problem, ProblemSpec)
    require_instance("x", x, Assignment)
    size = problem.n * problem.n
    if len(x.cells) != size:
        raise DimensionError(f"expected length {size}, got {len(x.cells)}")
    return x.cells


@dataclass(frozen=True)
class NecessityReport:
    """Outcome of the reconstruction identity for one constraint.

    ``first_violation`` is (cell index, expected, actual).  ``holds`` is
    true exactly when no difference vanished and the reconstruction equals
    the assignment componentwise.
    """

    constraint_id: int
    holds: bool
    reconstructed: tuple[int, ...] | None
    first_violation: tuple[int, int, int] | None
    zero_rows: tuple[int, ...]


def check_necessary(problem: "ProblemSpec", x: Assignment) -> list[NecessityReport]:
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


@dataclass(frozen=True)
class GivensReport:
    """Whether the reconstructed values match the problem's givens.

    ``mismatch`` is (constraint_id, cell index, expected given, reconstructed)
    for the first failure, None when everything matches.
    """

    ok: bool
    mismatch: tuple[int, int, int, int] | None


def check_givens(problem: "ProblemSpec", x: Assignment) -> GivensReport:
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
