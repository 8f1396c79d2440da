"""Pairwise-difference matrices and their permuted block extensions.

The base matrix for alphabet size n has one row per unordered pair
(p, m) with p < m, reading x_p - x_m; the block extension holds n copies
of it with columns permuted.  Both are one sparse type that stores each
row as its (plus, minus) column pair only; every row has exactly two
nonzeros, so dense export exists for tests and dumps, never for
computation.  Each row is an edge between two columns, so a matrix is the
incidence matrix of a graph (A(n) that of the complete graph K_n) and its
rank is the number of rows that join columns not yet connected: the
column count minus the connected components.  All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import (
    DimensionError,
    InvalidPermutationError,
    Record,
    SpecError,
    as_ints,
    as_tuples,
    require_instance,
    require_int,
)
from .permutations import Permutation


def triangular_sum(n: int) -> int:
    """Number of unordered pairs from n items: n(n-1)/2 (0 for n=1)."""
    require_int("n", n)
    if n < 1:
        raise SpecError(f"n must be >= 1, got {n}")
    return n * (n - 1) // 2


class ConstraintMatrix(Record):
    """Sparse matrix over alphabet size n whose every row reads x_plus - x_minus.

    ``rows`` holds each row's 1-based (plus, minus) column pair, in row
    order: two distinct ints in 1..column_count.  A row that is not a pair,
    or whose columns coincide or fall outside that range, raises SpecError;
    a column that is not an int raises InputTypeError.  Never materialized
    densely except on demand.
    """

    __match_args__ = ("n", "column_count", "rows")

    def __init__(self, n: int, column_count: int, rows: tuple[tuple[int, int], ...]):
        require_int("n", n)
        require_int("column_count", column_count)
        rows = as_tuples("rows", rows)
        for i, row in enumerate(rows, start=1):
            if len(row) != 2:
                raise SpecError(f"row {i} must be a (plus, minus) pair, got {row!r}")
            plus, minus = as_ints(f"row {i}", row)
            if plus == minus or not (1 <= plus <= column_count and 1 <= minus <= column_count):
                message = f"row {i} must join two distinct columns in 1..{column_count}"
                raise SpecError(f"{message}, got {row!r}")
        self._set(n, column_count, rows)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def to_dense(self) -> list[list[int]]:
        dense = []
        for plus, minus in self.rows:
            row = [0] * self.column_count
            row[plus - 1] = 1
            row[minus - 1] = -1
            dense.append(row)
        return dense

    def apply(self, x: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product: one difference x_plus - x_minus per row.

        An x that is not a sequence of ints raises InputTypeError, one of
        the wrong length DimensionError; so does y in ``apply_transpose``.
        """
        x = as_ints("x", x)
        if len(x) != self.column_count:
            raise DimensionError(f"expected length {self.column_count}, got {len(x)}")
        return tuple(x[plus - 1] - x[minus - 1] for plus, minus in self.rows)

    def apply_transpose(self, y: Sequence[int]) -> tuple[int, ...]:
        """Transpose product: column plus gains +y_r, column minus gains -y_r."""
        y = as_ints("y", y)
        if len(y) != self.row_count:
            raise DimensionError(f"expected length {self.row_count}, got {len(y)}")
        out = [0] * self.column_count
        for val, (plus, minus) in zip(y, self.rows):
            out[plus - 1] += val
            out[minus - 1] -= val
        return tuple(out)


def build_difference_matrix(n: int) -> ConstraintMatrix:
    """The triangular_sum(n) x n matrix of all pairwise differences.

    Inductive construction: rows (1,2)..(1,n), then the n-1 case shifted,
    which coincides with lexicographic order on (p, m).
    """
    require_int("n", n)
    if n < 1:
        raise SpecError(f"n must be >= 1, got {n}")
    rows = tuple((p, m) for p in range(1, n) for m in range(p + 1, n + 1))
    return ConstraintMatrix(n, n, rows)


def build_constraint_matrix(n: int, perm: Permutation) -> ConstraintMatrix:
    """n block copies of the difference matrix with columns permuted.

    Block b (1-based) row (p, m) reads +1 at column perm((b-1)n+p) and -1
    at column perm((b-1)n+m).
    """
    require_int("n", n)
    require_instance("perm", perm, Permutation)
    if n < 2:
        raise SpecError(f"n must be >= 2, got {n}")
    if perm.size != n * n:
        raise InvalidPermutationError(
            f"permutation size {perm.size} does not match n^2 = {n * n}"
        )
    images, base = perm.images, build_difference_matrix(n).rows
    rows = tuple(
        (images[offset + p - 1], images[offset + m - 1])
        for offset in range(0, n * n, n)
        for p, m in base
    )
    return ConstraintMatrix(n, n * n, rows)


def vanishing_rows(values: Sequence[int], block: int) -> Iterator[int]:
    """Yield, ascending, the 1-based constraint matrix rows that vanish in a block.

    ``values`` are the cell values of the constraint's group ``block``
    (0-based).  ``build_constraint_matrix`` gives the block one row per pair
    (p, m), p < m, in lexicographic order, so the row of a pair is
    block * n(n-1)/2 plus its lexicographic index, plus 1; it vanishes when
    the pair's values are equal.
    """
    n = len(values)
    row = block * triangular_sum(n)
    for p in range(n):
        for m in range(p + 1, n):
            row += 1
            if values[p] == values[m]:
                yield row


def rank_of_difference_matrix(matrix: ConstraintMatrix) -> int:
    """Exact rank over the rationals: the number of rows that join two
    columns not yet connected (the column count minus the components),
    counted in one union-find pass with path halving."""
    require_instance("matrix", matrix, ConstraintMatrix)
    parent = list(range(matrix.column_count + 1))

    def root(column: int) -> int:
        while parent[column] != column:
            parent[column] = parent[parent[column]]
            column = parent[column]
        return column

    rank = 0
    for plus, minus in matrix.rows:
        a, b = root(plus), root(minus)
        if a != b:
            parent[a] = b
            rank += 1
    return rank
