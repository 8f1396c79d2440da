"""A digest of ``solve``'s search over a fixed list of seeded draws.

Each draw is a Latin 3x3 to 7x7, a classic 4x4 or 9x9, or a gerechte 4x4
to 7x7 problem whose regions are scattered: each value's cells of a
shuffled cyclic Latin square are dealt one to each region, so the square
solves it.  The givens are any number of the square's cells; in 30% of
the draws one of them is changed to any value, which may leave no solution
or repeat a value in a group.  The cap is 1, 2, 3 or none; with none, at
least half the cells are given, which keeps every enumeration small.

One sha256 over every draw's node count, solutions, ``exhausted`` flag and
diagnostics, in order, pins the search tree of each, and the total node
count says by how much a change moved it.  A change to ``solve`` that
claims identical nodes and order must leave both as they are; one that
changes the order on purpose rewrites them and says so.  Run this file as
a script to print both for the current code.
"""

import hashlib
import random

from gensudoku import Partition, make_classic_spec, make_gerechte_spec, make_latin_spec, solve
from reference_data import deal_regions, shuffled_latin_square, shuffled_sudoku_grid, time_bound

SEED = 20261020
DRAWS = 1000
DIGEST = "ee4dd9cb3e1b56f1b52a5c0594250236c56c671e0fae144b72ee33a0dba63d52"
TOTAL_NODES = 347_809


def draw(rng):
    """One (spec, cap) of the families above."""
    family = rng.choice(("latin", "classic", "gerechte"))
    if family == "classic":
        m = rng.choice((2, 3))
        n = m * m
        square = shuffled_sudoku_grid(rng, m)
        make = make_classic_spec
    else:
        n = rng.randint(3, 7) if family == "latin" else rng.randint(4, 7)
        square = shuffled_latin_square(rng, n)
        make = make_latin_spec
        if family == "gerechte":
            regions = [sorted(region) for region in deal_regions(square, rng.sample)]
            make = lambda n, g: make_gerechte_spec(Partition(n, regions), g)
    cap = rng.choice((1, 2, 3, None))
    count = rng.randint(0 if cap else n * n // 2, n * n)
    cells = rng.sample(range(1, n * n + 1), count)
    givens = [(c, square[c - 1]) for c in cells]
    if givens and rng.random() < 0.3:
        i = rng.randrange(len(givens))
        givens[i] = (givens[i][0], rng.randint(1, n))
    return make(n, givens), cap


def search_digest():
    """The sha256 hex digest over every draw's outcome, and the total nodes."""
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    total = 0
    for _ in range(DRAWS):
        spec, cap = draw(rng)
        outcome = solve(spec, cap=cap)
        solutions = [s.cells for s in outcome.solutions]
        record = (outcome.nodes_explored, solutions, outcome.exhausted, outcome.diagnostics)
        digest.update(repr(record).encode())
        total += outcome.nodes_explored
    return digest.hexdigest(), total


def test_search_nodes_solutions_and_order_match_the_digest():
    # It takes a few seconds; a search that prunes wrongly can run for
    # minutes, so the test fails after 30 s instead.
    with time_bound(30):
        assert search_digest() == (DIGEST, TOTAL_NODES)


if __name__ == "__main__":
    print(*search_digest())
