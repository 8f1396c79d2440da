"""Frozen reference values for the worked examples.

The 9-alphabet example: the full pairwise-difference matrix, the sign
vector of its product with X9, and the resulting column sums.  The
3-alphabet example: the region-permuted constraint matrix for the groups
{1,2,4}, {5,7,8}, {3,6,9} and the matching vectors for the solved square
(2,1,3,3,2,1,1,3,2).

``reference_verify`` is a second route to ``verify_solution``'s verdict and
wording that shares no code with the library, ``exact_cover_solutions``
a second route to ``solve``'s solution set, ``reference_search`` a second
route to its node count and solution order, and ``reference_rank`` a
second route to ``rank_of_difference_matrix``.  ``reference_search``
decides a group by recounting its cells' candidate masks, where ``solve``
reads the group's value planes, so the two reach each dead end and hidden
single by different routes.
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


def exact_cover_solutions(n, groups, givens=()):
    """Every grid whose given cells hold their values and whose groups each
    hold 1..n, found as exact covers by Algorithm X in dict-of-sets form
    (Knuth, "Dancing Links", arXiv:cs/0011047).

    ``groups`` are lists of 1-based cells.  Columns are ``("cell", c)`` and
    ``("group", g, v)``; row ``(c, v)`` covers cell c and value v of each
    group holding c.  Returns the grids as tuples, in the order found.
    """
    covers = {
        (c, v): [("cell", c)] + [("group", g, v) for g, group in enumerate(groups) if c in group]
        for c in range(1, n * n + 1)
        for v in range(1, n + 1)
    }
    rows_of = {}
    for row, columns in covers.items():
        for column in columns:
            rows_of.setdefault(column, set()).add(row)

    def select(row):
        removed = []
        for column in covers[row]:
            for other in rows_of[column]:
                for elsewhere in covers[other]:
                    if elsewhere != column:
                        rows_of[elsewhere].discard(other)
            removed.append(rows_of.pop(column))
        return removed

    def deselect(row, removed):
        for column in reversed(covers[row]):
            rows_of[column] = removed.pop()
            for other in rows_of[column]:
                for elsewhere in covers[other]:
                    if elsewhere != column:
                        rows_of[elsewhere].add(other)

    grid = [0] * (n * n)
    for cell, value in givens:
        if any(column not in rows_of for column in covers[(cell, value)]):
            return []
        select((cell, value))
        grid[cell - 1] = value
    found = []

    def search():
        if not rows_of:
            found.append(tuple(grid))
            return
        column = min(rows_of, key=lambda col: len(rows_of[col]))
        for cell, value in sorted(rows_of[column]):
            removed = select((cell, value))
            grid[cell - 1] = value
            search()
            grid[cell - 1] = 0
            deselect((cell, value), removed)

    search()
    return found


def reference_search(spec, cap=None):
    """``(solutions, nodes, exhausted)`` of ``solve``'s search, recounting at
    every node what ``solve`` reads off its ``low`` cell mask, its value
    planes and its stale (group, value) marks.

    Its loop is the search as it was before those, on a trail: the MRV
    scan over every free cell at every node, stopping at a count of 0 or 1,
    and the hidden-single / dead-place pass over every distinct group with
    a missing value.  It builds the distinct groups from the spec's
    permutations itself and returns the grids as tuples, uncertified;
    givens that repeat a value in a group give no solutions, no nodes and
    ``exhausted``.
    """
    n = spec.n
    total = n * n
    full = ((1 << n) - 1) << 1  # bits 1..n
    groups = tuple(
        dict.fromkeys(
            tuple(image - 1 for image in perm.images[b * n : (b + 1) * n])
            for perm in spec.constraints
            for b in range(n)
        )
    )
    values = [0] * total
    for cell, value in spec.givens:
        values[cell - 1] = value
    cell_groups = [[] for _ in range(total)]
    used = [0] * len(groups)  # bitmask of values present per group
    for gid, group in enumerate(groups):
        for cell in group:
            cell_groups[cell].append(gid)
            value = values[cell]
            if not value:
                continue
            if used[gid] >> value & 1:
                return [], 0, True
            used[gid] |= 1 << value

    solutions, nodes = [], 0
    unassigned = [i for i in range(total) if values[i] == 0]
    cand = [0] * total  # candidate mask per free cell, 0 for a filled one
    for i in unassigned:
        mask = full
        for gid in cell_groups[i]:
            mask &= ~used[gid]
        cand[i] = mask
    trail = []  # cells whose candidate bit a placement cleared
    # (cell, values still to try there, its mask before placing, trail mark)
    stack = []
    while True:
        # Most-constrained free cell, lowest index on ties; stop at a count <= 1.
        best, best_count = None, n + 1
        for i in unassigned:
            if values[i]:
                continue
            count = cand[i].bit_count()
            if count < best_count:
                best, best_count = i, count
                if count <= 1:
                    break
        if best is None:
            solutions.append(tuple(values))
            if cap is not None and len(solutions) >= cap:
                return solutions, nodes, False
        else:
            best_mask = cand[best]
            if best_count >= 2:
                for gid, group in enumerate(groups):
                    missing = full & ~used[gid]
                    if not missing:
                        continue
                    ones = twos = 0  # values one / two or more cells can take
                    for cell in group:
                        m = cand[cell]
                        twos |= ones & m
                        ones |= m
                    if missing & ~ones:
                        best_mask = 0
                        break
                    single = missing & ~twos
                    if single:
                        best_mask = single & -single
                        best = next(c for c in group if cand[c] & best_mask)
                        break
            stack.append((best, best_mask, cand[best], len(trail)))
        # Backtrack to the deepest cell with a value left and place its lowest.
        while stack:
            cell, mask, saved, mark = stack.pop()
            if values[cell]:
                bit = 1 << values[cell]
                for gid in cell_groups[cell]:
                    used[gid] &= ~bit
                for peer in trail[mark:]:
                    cand[peer] |= bit
                del trail[mark:]
            if mask:
                bit = mask & -mask
                nodes += 1
                values[cell] = bit.bit_length() - 1
                cand[cell] = 0
                for gid in cell_groups[cell]:
                    used[gid] |= bit
                    for peer in groups[gid]:
                        if cand[peer] & bit:
                            cand[peer] ^= bit
                            trail.append(peer)
                stack.append((cell, mask ^ bit, saved, mark))
                break
            values[cell] = 0
            cand[cell] = saved
        else:
            return solutions, nodes, True


def reference_rank(dense):
    """Exact rank over the rationals via fraction-free (Bareiss) elimination.

    ``dense`` is a list of integer rows, as ``ConstraintMatrix.to_dense``
    gives; it is eliminated in place.
    """
    m = dense
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = next(
            (i for i in range(rank, n_rows) if m[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, n_rows):
            factor = m[i][col]
            for j in range(col, n_cols):
                m[i][j] = (pivot * m[i][j] - factor * m[rank][j]) // prev_pivot
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank
