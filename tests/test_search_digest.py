"""A digest of ``solve``'s search over a fixed list of seeded draws.

Each draw (``reference_data.digest_draw``) is a Latin 3x3 to 7x7, a
classic 4x4 or 9x9, or a gerechte 4x4 to 7x7 problem whose regions are
scattered: each value's cells of a shuffled cyclic Latin square are dealt
one to each region, so the square solves it.  The givens are any number of the square's cells; in 30% of
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

from gensudoku import solve
from reference_data import DIGEST_SEED, digest_draw, outcome_record, time_bound

DRAWS = 1000
DIGEST = "8a453219bc40fb26ca8d5e708f1c1f27d517bdfee5543273d0acd7bca74206c8"
TOTAL_NODES = 310_953


def search_digest():
    """The sha256 hex digest over every draw's outcome, and the total nodes."""
    rng = random.Random(DIGEST_SEED)
    digest = hashlib.sha256()
    total = 0
    for _ in range(DRAWS):
        spec, cap = digest_draw(rng)
        outcome = solve(spec, cap=cap)
        digest.update(repr(outcome_record(outcome)).encode())
        total += outcome.nodes_explored
    return digest.hexdigest(), total


def test_search_nodes_solutions_and_order_match_the_digest():
    # It takes a few seconds; a search that prunes wrongly can run for
    # minutes, so the test fails after 30 s instead.
    with time_bound(30):
        assert search_digest() == (DIGEST, TOTAL_NODES)


if __name__ == "__main__":
    print(*search_digest())
