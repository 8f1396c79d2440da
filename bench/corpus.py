"""Fixed inputs that the seeded generators in ``inputs.py`` start from.

SUDOKU_9X9 holds unique classic 9x9 puzzles with their solutions as
81-character strings read row-major, '.' marking a blank.  ``fixture-1`` to
``fixture-5`` are the five published example grids of the acceptance tests,
in their order; ``inkala`` is Arto Inkala's puzzle.  ``test_bench.py`` checks
that each puzzle has exactly one solution and that it is the stored one.

GERECHTE_4X4 holds 4x4 region tilings, one region label per cell, read
row-major.  Their solution sets are not stored: the benchmark filters the 576
Latin squares of order 4 by region.
"""

SUDOKU_9X9 = (
    (
        "fixture-1",
        "53..7....6..195....98....6.8...6...34..8.3..17...2...6.6....28....419..5....8..79",
        "534678912672195348198342567859761423426853791713924856961537284287419635345286179",
    ),
    (
        "fixture-2",
        "..3.2.6..9..3.5..1..18.64....81.29..7.......8..67.82....26.95..8..2.3..9..5.1.3..",
        "483921657967345821251876493548132976729564138136798245372689514814253769695417382",
    ),
    (
        "fixture-3",
        "2...8.3...6..7..84.3.5..2.9...1.54.8.........4.27.6...3.1..7.4.72..4..6...4.1...3",
        "245981376169273584837564219976125438513498627482736951391657842728349165654812793",
    ),
    (
        "fixture-4",
        ".3..5..4...8.1.5..46.....12.7.5.2.8....6.3....4.1.9.3.25.....98..1.2.6...8..6..2.",
        "137256849928314567465897312673542981819673254542189736256731498391428675784965123",
    ),
    (
        "fixture-5",
        "1....7.9..3..2...8..96..5....53..9...1..8...26....4...3......1..4......7..7...3..",
        "162857493534129678789643521475312986913586742628794135356478219241935867897261354",
    ),
    (
        "inkala",
        "8..........36......7..9.2...5...7.......457.....1...3...1....68..85...1..9....4..",
        "812753649943682175675491283154237896369845721287169534521974368438526917796318452",
    ),
)

GERECHTE_4X4 = (
    "AAABABBBCCCDCDDD",
    "ABBBAABCADCCDDDC",
    "AABBACCBACDBDCDD",
    "AAABCABBCCDBCDDD",
    "ABBBAACBDACCDDDC",
    "AAABBBACBCCCDDDD",
)
