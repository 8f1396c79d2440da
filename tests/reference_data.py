"""Fixtures, constructions and oracles that more than one test module uses.

Frozen reference values for the worked examples.  The 9-alphabet
example: the full pairwise-difference matrix, the sign vector of its
product with X9, and the resulting column sums.  The 3-alphabet example:
the region-permuted constraint matrix for the groups {1,2,4}, {5,7,8},
{3,6,9} and the matching vectors for the solved square
(2,1,3,3,2,1,1,3,2).  Then the published 9x9 puzzles
(``SUDOKU_9X9_FIXTURES``) and Inkala's puzzle with its solution.

The random members of the model's one family, all cell groups that each
hold 1..n: ``band_order`` shuffles rows within bands,
``sudoku_grid``/``shuffled_sudoku_grid`` give a pattern Sudoku grid of
order m*m, ``latin_square``/``shuffled_latin_square`` a cyclic Latin
square, and ``deal_regions`` the gerechte regions a square fits, its
value cells dealt one to each region.  ``rows_and_columns`` lists an n x n
grid's row and column groups, and ``box_groups`` the boxes of a grid of
order m*m.  Each shuffled construction draws from a ``random.Random`` in a
fixed order, so a seed names one problem; ``deal_regions`` takes a
``sample`` function, ``rng.sample`` or a hypothesis draw.

``reference_verify`` is a second route to ``verify_solution``'s verdict and
wording that shares no code with the library, ``exact_cover_solutions``
a second route to ``solve``'s solution set, ``count_grids_by_row_product``
a third that enumerates whole grids row by row, ``reference_search`` a
second route to its node count and solution order, and ``reference_rank`` a
second route to ``rank_of_difference_matrix``.  ``reference_search``
decides a group by recounting its cells' candidate masks, where ``solve``
reads the group's value planes, so the two reach each dead end and hidden
single by different routes.  It finds a dead cell by recounting every
free cell's candidates, where ``solve`` keeps a flag, and finds places
locked in another group from the groups their first two cells share,
where ``solve`` tries the groups holding their first and last cells.
``time_bound`` fails a test whose block runs past a number of seconds.
"""

import contextlib
import math
import signal
import time
from itertools import permutations as iter_permutations

import pytest

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

SUDOKU_9X9_FIXTURES = [
    # Widely published example grids.
    "53..7...." "6..195..." ".98....6." "8...6...3" "4..8.3..1"
    "7...2...6" ".6....28." "...419..5" "....8..79",
    "..3.2.6.." "9..3.5..1" "..18.64.." "..81.29.." "7.......8"
    "..67.82.." "..26.95.." "8..2.3..9" "..5.1.3..",
    "2...8.3.." ".6..7..84" ".3.5..2.9" "...1.54.8" "........."
    "4.27.6..." "3.1..7.4." "72..4..6." "..4.1...3",
    ".3..5..4." "..8.1.5.." "46.....12" ".7.5.2.8." "...6.3..."
    ".4.1.9.3." "25.....98" "..1.2.6.." ".8..6..2.",
    "1....7.9." ".3..2...8" "..96..5.." "..53..9.." ".1..8...2"
    "6....4..." "3......1." ".4......7" "..7...3..",
]

# Arto Inkala's puzzle and its unique solution, as bench/corpus.py stores them.
INKALA = "8..........36......7..9.2...5...7.......457.....1...3...1....68..85...1..9....4.."
INKALA_SOLUTION = "812753649943682175675491283154237896369845721287169534521974368438526917796318452"


def band_order(rng, m=3):
    """0..m*m-1 shuffled so that each band of m stays together."""
    return [m * b + i for b in rng.sample(range(m), m) for i in rng.sample(range(m), m)]


def sudoku_grid(m, values, rows, cols):
    """Cells of the pattern Sudoku grid of order n = m*m, its values, rows
    and columns taken in the given orders of 0..n-1."""
    n = m * m
    return [
        values[(m * (rows[i // n] % m) + rows[i // n] // m + cols[i % n]) % n] + 1
        for i in range(n * n)
    ]


def shuffled_sudoku_grid(rng, m):
    """The pattern grid with its values, then its bands and the rows within
    them, then its stacks and the columns within them, shuffled by ``rng``."""
    n = m * m
    return sudoku_grid(m, rng.sample(range(n), n), band_order(rng, m), band_order(rng, m))


def latin_square(values, rows, cols):
    """Cells of the cyclic Latin square, its values, rows and columns taken
    in the given orders of 0..n-1."""
    n = len(values)
    return [values[(rows[i // n] + cols[i % n]) % n] + 1 for i in range(n * n)]


def shuffled_latin_square(rng, n):
    """The cyclic Latin square with its values, rows and columns shuffled by ``rng``."""
    return latin_square(*(rng.sample(range(n), n) for _ in range(3)))


def deal_regions(square, sample):
    """n regions that ``square`` fits: each value's cells, drawn in the order
    ``sample(cells, n)`` gives, dealt one to each region.

    Value by value, region r takes the r-th cell drawn, so each region holds
    1..n in ``square``.  Cells are 1-based and listed by value, not sorted.
    """
    n = math.isqrt(len(square))
    by_value = [sample([i + 1 for i in range(n * n) if square[i] == v], n) for v in range(1, n + 1)]
    return [[cells[r] for cells in by_value] for r in range(n)]


def rows_and_columns(n):
    """An n x n grid's n rows, then its n columns, as lists of 1-based cells."""
    rows = [list(range(r * n + 1, r * n + n + 1)) for r in range(n)]
    return rows + [list(range(c + 1, n * n + 1, n)) for c in range(n)]


def box_groups(m):
    """A grid of order n = m*m's n boxes, by rows of boxes, as lists of
    1-based cells in reading order."""
    n = m * m
    return [
        [m * n * (b // m) + n * r + m * (b % m) + c + 1 for r in range(m) for c in range(m)]
        for b in range(n)
    ]


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


def count_grids_by_row_product(n, extra_groups=(), givens=()):
    """``(count, grids)`` of every grid whose rows are permutations of 1..n,
    whose columns and ``extra_groups`` each hold 1..n and whose givens stand.

    The grids are a product of rows, each taken in lexicographic order, the
    last row fastest.  A row that repeats a value above it in a column is
    passed over; the groups and givens are checked on whole grids.
    """
    given_map = dict(givens)
    rows = list(iter_permutations(range(1, n + 1)))
    solutions = []

    def extend(grid):
        if len(grid) == n:
            cells = tuple(v for row in grid for v in row)
            for group in extra_groups:
                if len({cells[i - 1] for i in group}) != n:
                    return
            for cell, value in given_map.items():
                if cells[cell - 1] != value:
                    return
            solutions.append(cells)
            return
        for row in rows:
            if all(row[c] != above[c] for above in grid for c in range(n)):
                extend(grid + [row])

    extend([])
    return len(solutions), solutions


def reference_search(spec, cap=None):
    """``(solutions, nodes, exhausted)`` of ``solve``'s search, recounting at
    every node what ``solve`` reads off its ``low`` cell mask, its ``dead``
    flag and its stale (group, value) marks.

    At every node it recounts every free cell's candidates: a cell with
    none is a dead end, and the lowest cell with one is placed.  Failing
    both, it walks every pair of a group and a value missing there, values
    ascending, then groups ascending.  A pair with fewer than two places
    stops the walk at its group, and later values walk only the groups
    before it.  When a pair's places all lie in another group, the value
    leaves that group's other cells, and their groups are walked again.
    The stop group is decided by recounting its cells' masks; without one,
    a cell the walk left dead or with one candidate comes next, and then
    the free cell with the fewest candidates.  It finds that other group
    from the groups its first two places share, not from those its first
    and last places share, as ``solve`` does, and undoes every candidate it
    clears, by placing or by the walk, from one trail.  It builds the
    distinct groups from the spec's permutations itself and returns the
    grids as tuples, uncertified; givens that repeat a value in a group
    give no solutions, no nodes and ``exhausted``.
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
    cell_groups = [set() for _ in range(total)]
    used = [0] * len(groups)  # bitmask of values present per group
    for gid, group in enumerate(groups):
        for cell in group:
            cell_groups[cell].add(gid)
            value = values[cell]
            if not value:
                continue
            if used[gid] >> value & 1:
                return [], 0, True
            used[gid] |= 1 << value
    cells_of = [sum(1 << cell for cell in group) for group in groups]

    solutions, nodes = [], 0
    cand = [0] * total  # candidate mask per free cell, 0 for a filled one
    for i in range(total):
        if not values[i]:
            cand[i] = full
            for gid in cell_groups[i]:
                cand[i] &= ~used[gid]
    # places[v], bit i: cand[i] holds v
    places = [sum(1 << i for i in range(total) if cand[i] >> v & 1) for v in range(n + 1)]
    trail = []  # (cell, value bit) for each candidate cleared since the search began

    def clear(cell, bit):
        cand[cell] ^= bit
        places[bit.bit_length() - 1] ^= 1 << cell
        trail.append((cell, bit))

    stack = []  # (cell, values still to try, trail mark)
    while True:
        free = [i for i in range(total) if not values[i]]
        stop = None
        if free and all(cand[i].bit_count() >= 2 for i in free):
            below = len(groups)  # the walk stops short of the stop group
            for v in range(1, n + 1):
                bit = 1 << v
                todo = sum(1 << g for g in range(below) if not used[g] & bit)
                while todo:
                    g = (todo & -todo).bit_length() - 1
                    todo ^= 1 << g
                    here = places[v] & cells_of[g]
                    if here.bit_count() < 2:
                        stop = below = g
                        break
                    # v goes in one of these cells, so any other group
                    # holding all of them gets its v there too.
                    first = (here & -here).bit_length() - 1
                    rest = here & (here - 1)
                    second = (rest & -rest).bit_length() - 1
                    lost = 0
                    for h in cell_groups[first] & cell_groups[second] - {g}:
                        if not here & ~cells_of[h]:
                            lost |= places[v] & cells_of[h] & ~here
                    while lost:
                        c = (lost & -lost).bit_length() - 1
                        lost &= lost - 1
                        clear(c, bit)
                        todo |= sum(1 << h for h in cell_groups[c] if h < below)
        counts = [cand[i].bit_count() for i in free]
        if stop is not None:
            # Values one / two or more free cells of the stop group can take.
            ones = twos = 0
            for cell in groups[stop]:
                m = cand[cell]
                twos |= ones & m
                ones |= m
            missing = full & ~used[stop]
            if not missing & ~ones:
                single = missing & ~twos
                best = next(c for c in groups[stop] if cand[c] & single & -single)
                stack.append((best, single & -single, len(trail)))
        elif 0 in counts:
            pass
        elif not free:
            solutions.append(tuple(values))
            if cap is not None and len(solutions) >= cap:
                return solutions, nodes, False
        else:
            # The lowest cell with one candidate, else the lowest with fewest.
            best = free[counts.index(min(counts))]
            stack.append((best, cand[best], len(trail)))
        # Backtrack to the deepest cell with a value left and place its lowest.
        while stack:
            cell, mask, mark = stack.pop()
            if values[cell]:
                for gid in cell_groups[cell]:
                    used[gid] &= ~(1 << values[cell])
                values[cell] = 0
            for peer, bit in trail[mark:]:
                cand[peer] |= bit
                places[bit.bit_length() - 1] |= 1 << peer
            del trail[mark:]
            if mask:
                bit = mask & -mask
                nodes += 1
                values[cell] = bit.bit_length() - 1
                own = cand[cell]  # cleared too, so the trail restores it
                while own:
                    clear(cell, own & -own)
                    own &= own - 1
                for gid in cell_groups[cell]:
                    used[gid] |= bit
                    for peer in groups[gid]:
                        if cand[peer] & bit:
                            clear(peer, bit)
                stack.append((cell, mask ^ bit, mark))
                break
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


@contextlib.contextmanager
def time_bound(seconds):
    """Fail the running test if the block takes longer than ``seconds``.

    A SIGALRM interval timer interrupts the block; the previous handler and
    timer (less the time the block took) are restored on the way out.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)

    handler = signal.signal(signal.SIGALRM, expire)
    delay, interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if delay:
            left = max(delay - (time.monotonic() - start), 1e-6)
            signal.setitimer(signal.ITIMER_REAL, left, interval)
