"""Frozen reference values for the worked examples.

The 9-alphabet example: the full pairwise-difference matrix, the sign
vector of its product with X9, and the resulting column sums.  The
3-alphabet example: the region-permuted constraint matrix for the groups
{1,2,4}, {5,7,8}, {3,6,9} and the matching vectors for the solved square
(2,1,3,3,2,1,1,3,2).

``reference_verify`` is a second route to ``verify_solution``'s verdict and
wording that shares no code with the library.
"""

A9_DENSE = (
    (1, -1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, -1, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, -1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, -1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, -1, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, -1, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, -1),
    (0, 1, -1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, -1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, -1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, -1, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, -1, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, -1, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, -1),
    (0, 0, 1, -1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, -1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, -1, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, -1, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, -1, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, -1),
    (0, 0, 0, 1, -1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, -1, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, -1, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, -1),
    (0, 0, 0, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, -1, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, -1, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, -1),
    (0, 0, 0, 0, 0, 1, -1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, -1, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, -1),
    (0, 0, 0, 0, 0, 0, 1, -1, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 0, 0, 0, 0, 1, -1),
)
REGION3_DENSE = (
    (1, -1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, -1, 0, 0, 0, 0, 0),
    (0, 1, 0, -1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, -1, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, -1, 0),
    (0, 0, 0, 0, 0, 0, 1, -1, 0),
    (0, 0, 1, 0, 0, -1, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, -1),
    (0, 0, 0, 0, 0, 1, 0, 0, -1),
)

X9 = (2, 8, 1, 5, 9, 4, 6, 3, 7)

X9_SIGNS = (
    -1, 1, -1, -1, -1, -1, -1, -1, 1, 1, -1, 1, 1, 1, 1, -1, -1, -1,
    -1, -1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1,
)

X9_COLUMN_SUMS = (-6, 6, -8, 0, 8, -2, 2, -4, 4)

REGION3_GROUPS = ((1, 2, 4), (5, 7, 8), (3, 6, 9))

REGION3_PERM_IMAGES = (1, 2, 4, 5, 7, 8, 3, 6, 9)

X3 = (2, 1, 3, 3, 2, 1, 1, 3, 2)

X3_SIGNS = (1, -1, -1, 1, -1, -1, 1, 1, -1)

X3_COLUMN_SUMS = (0, -2, 2, 2, 0, -2, -2, 2, 0)


def reference_verify(spec, cells):
    """``(ok, clause, detail)`` for a grid, checked clause by clause with sets.

    Range first, then each constraint in order: its block b ties together
    the cells its permutation sends block b's columns to, and a block
    holding a value twice is named by its first vanishing row, block b's
    n(n-1)/2 rows before it plus the lexicographic index of its first equal
    pair (p, m), p < m.  Then the givens.
    """
    n = spec.n
    for i, value in enumerate(cells, start=1):
        if not 1 <= value <= n:
            return False, "range", f"cell {i} holds {value}, outside 1..{n}"
    pairs = [(p, m) for p in range(n) for m in range(p + 1, n)]
    for constraint_id, perm in enumerate(spec.constraints, start=1):
        for block in range(n):
            values = [cells[image - 1] for image in perm.images[block * n : (block + 1) * n]]
            if len(set(values)) < n:
                index = next(k for k, (p, m) in enumerate(pairs) if values[p] == values[m])
                row = block * len(pairs) + index + 1
                detail = f"constraint {constraint_id}, row {row}: zero difference"
                return False, "constraint", detail
    for cell, value in spec.givens:
        if cells[cell - 1] != value:
            return False, "given", f"cell {cell} holds {cells[cell - 1]}, given is {value}"
    return True, None, "all clauses hold"
