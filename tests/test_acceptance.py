"""Acceptance suite: one test per criterion, each printing a pass line.

The per-criterion lines are printed through ``capsys.disabled()``, so
every run shows them, with or without ``-v -s``.  Expected values come
from the frozen reference data and from the independent enumeration
oracles in ``reference_data``, never from the code paths under test.
"""

import hashlib
import math
import random
import time
from itertools import combinations

import pytest

from gensudoku import (
    Assignment,
    NotApplicableError,
    Partition,
    Permutation,
    brute_force,
    build_constraint_matrix,
    build_difference_matrix,
    check_givens,
    check_necessary,
    gsgn,
    identity_permutation,
    make_classic_spec,
    make_gerechte_spec,
    make_latin_spec,
    pairwise_sign_sum,
    parse_dot_string,
    partition_permutation,
    rank_of_difference_matrix,
    reconstruct,
    sign_sum_closed_form,
    solve,
    verify_solution,
)
from gensudoku.cli import run_cli
from reference_data import (
    A9_DENSE,
    INKALA,
    INKALA_SOLUTION,
    REGION3_DENSE,
    REGION3_GROUPS,
    SUDOKU_9X9_FIXTURES,
    X3,
    X3_COLUMN_SUMS,
    X3_SIGNS,
    X9,
    X9_COLUMN_SUMS,
    X9_SIGNS,
    count_grids_by_row_product,
    exact_cover_solutions,
    reference_search,
    rows_and_columns,
    time_bound,
)

# Fitted gerechte 9x9 puzzles, 66 cells blank: rows of region labels 1-9
# and the givens.  Each value's nine cells in a shuffled cyclic Latin square
# were dealt one to each region, so the square fits the scattered regions.
GERECHTE_9X9_FIXTURES = [
    (
        ("197682939", "877454157", "426335185", "671416887", "642349394",
         "543299673", "837231958", "182456512", "226758691"),
        "9.8647..." ".......8." ".87..2..." "....14..." "........."
        "..2.6...." "........." "...8....." ".......7.",
    ),
    (
        ("989342141", "797961772", "582556679", "481998463", "367954271",
         "482376659", "437351453", "151428253", "628368281"),
        "7........" "........." ".....5.7." "....1.78." "1..9....."
        "...7.2..." ".8......." ".9......4" "...5...2.",
    ),
]


def gerechte_9x9_spec(labels, dots):
    """The gerechte spec whose region r holds the cells labelled r."""
    cells = "".join(labels)
    groups = [tuple(c for c, label in enumerate(cells, 1) if label == r) for r in "123456789"]
    return make_gerechte_spec(Partition(9, groups), parse_dot_string(dots).givens())


def announce(number, elapsed=None):
    suffix = f" ({elapsed:.3f}s)" if elapsed is not None else ""
    print(f"criterion {number}: PASS{suffix}")


def test_criterion_1_dense_dump_of_full_difference_matrix(capsys):
    start = time.perf_counter()
    assert run_cli(["matrix", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    elapsed = time.perf_counter() - start
    assert lines[0] == "A(9)"
    rows = [tuple(int(v) for v in line.split()) for line in lines[1:]]
    assert rows == list(A9_DENSE)
    assert elapsed < 0.1
    with capsys.disabled():
        announce(1, elapsed)


def test_criterion_2_nine_alphabet_worked_example(capsys):
    start = time.perf_counter()
    matrix = build_difference_matrix(9)
    diffs = matrix.apply(X9)
    signs = gsgn(diffs)
    assert signs == X9_SIGNS
    assert matrix.apply_transpose(signs) == X9_COLUMN_SUMS
    assert reconstruct(matrix, X9) == X9
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    with capsys.disabled():
        announce(2, elapsed)


def test_criterion_3_region_worked_example(capsys):
    start = time.perf_counter()
    part = Partition(3, REGION3_GROUPS)
    matrix = build_constraint_matrix(3, partition_permutation(part))
    assert [tuple(r) for r in matrix.to_dense()] == list(REGION3_DENSE)
    signs = gsgn(matrix.apply(X3))
    assert signs == X3_SIGNS
    assert matrix.apply_transpose(signs) == X3_COLUMN_SUMS
    assert reconstruct(matrix, X3) == X3
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    with capsys.disabled():
        announce(3, elapsed)


def test_criterion_4_sign_sum_and_reconstruction_properties(capsys):
    start = time.perf_counter()
    rng = random.Random(101)
    for n in range(2, 11):
        matrix = build_difference_matrix(n)
        for _ in range(200):
            distinct = rng.sample(range(-60, 61), n)
            column_sums = matrix.apply_transpose(gsgn(matrix.apply(distinct)))
            for i in range(1, n + 1):
                assert column_sums[i - 1] == pairwise_sign_sum(distinct, i)
            ranged = rng.sample(range(1, n + 1), n)
            for i in range(1, n + 1):
                assert pairwise_sign_sum(ranged, i) == sign_sum_closed_form(
                    ranged[i - 1], n
                )
            assert reconstruct(matrix, ranged) == tuple(ranged)
        # Full-size reconstruction under a random relabeling of all cells.
        for _ in range(200):
            perm = Permutation(tuple(rng.sample(range(1, n * n + 1), n * n)))
            blockwise = [v for _ in range(n) for v in rng.sample(range(1, n + 1), n)]
            cells = perm.apply_to_vector(blockwise)
            full = build_constraint_matrix(n, perm)
            assert reconstruct(full, cells) == cells
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        announce(4, elapsed)


def test_criterion_5_column_relabeling_identities(capsys):
    start = time.perf_counter()
    rng = random.Random(103)
    for n in (2, 3, 4):
        base = build_constraint_matrix(n, identity_permutation(n))
        for _ in range(50):
            perm = Permutation(tuple(rng.sample(range(1, n * n + 1), n * n)))
            permuted = build_constraint_matrix(n, perm)
            x = tuple(rng.randint(-9, 9) for _ in range(n * n))
            assert permuted.apply(x) == base.apply(perm.inverse().apply_to_vector(x))
            lam = tuple(rng.choice([-1, 1]) for _ in range(base.row_count))
            assert permuted.apply_transpose(lam) == perm.apply_to_vector(
                base.apply_transpose(lam)
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        announce(5, elapsed)


def test_criterion_6_rank_and_kernel(capsys):
    start = time.perf_counter()
    for n in range(2, 13):
        matrix = build_difference_matrix(n)
        assert rank_of_difference_matrix(matrix) == n - 1
        assert matrix.apply([1] * n) == (0,) * len(matrix.rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        announce(6, elapsed)


def test_criterion_7_enumeration_counts_match_oracles(capsys):
    start = time.perf_counter()
    # Desk-scale instances where the exhaustive fill-in oracle applies.
    latin2 = make_latin_spec(2)
    latin3 = make_latin_spec(3)
    latin3_fixed = make_latin_spec(3, givens=((1, 1), (2, 2), (3, 3)))
    for spec, expected in ((latin2, 2), (latin3, 12)):
        oracle = brute_force(spec)
        assert len(oracle.solutions) == expected
        fast = solve(spec)
        assert {s.cells for s in fast.solutions} == {
            s.cells for s in oracle.solutions
        }
    oracle_fixed = brute_force(latin3_fixed)
    fast_fixed = solve(latin3_fixed)
    assert {s.cells for s in fast_fixed.solutions} == {
        s.cells for s in oracle_fixed.solutions
    }
    # The 4x4 classic grid count, via an independent row-product enumeration
    # (the plain fill-in oracle's size guard refuses 4^16 candidates).
    classic4 = make_classic_spec(4)
    blocks = ((1, 2, 5, 6), (3, 4, 7, 8), (9, 10, 13, 14), (11, 12, 15, 16))
    expected_count, expected_cells = count_grids_by_row_product(4, blocks)
    assert expected_count == 288
    outcome = solve(classic4)
    assert len(outcome.solutions) == 288
    assert {s.cells for s in outcome.solutions} == set(expected_cells)
    # The 4x4 Latin square count, by the same enumeration.
    expected_count, expected_cells = count_grids_by_row_product(4)
    assert expected_count == 576
    outcome = solve(make_latin_spec(4))
    assert len(outcome.solutions) == 576
    assert {s.cells for s in outcome.solutions} == set(expected_cells)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        announce(7, elapsed)


def test_criterion_7_first_row_fixed_count_as_stated():
    # The 12 order-3 Latin squares split evenly over the 3! = 6 first rows,
    # so fixing the first row to 1 2 3 leaves 2: the second row is one of
    # the two derangements 2 3 1 or 3 1 2, and the third row is forced.
    # Fixing a single cell instead leaves 12 / 3 = 4.
    first_row = ((1, 1), (2, 2), (3, 3))
    spec = make_latin_spec(3, givens=first_row)
    oracle = brute_force(spec)
    assert {s.cells for s in solve(spec).solutions} == {
        s.cells for s in oracle.solutions
    }
    expected = {(1, 2, 3, 2, 3, 1, 3, 1, 2), (1, 2, 3, 3, 1, 2, 2, 3, 1)}
    assert len(oracle.solutions) == 2
    assert {s.cells for s in oracle.solutions} == expected
    count, cells = count_grids_by_row_product(3, givens=first_row)
    assert count == 2
    assert set(cells) == expected

    one_cell = ((1, 1),)
    spec = make_latin_spec(3, givens=one_cell)
    oracle = brute_force(spec)
    assert {s.cells for s in solve(spec).solutions} == {
        s.cells for s in oracle.solutions
    }
    assert len(oracle.solutions) == 4
    count, cells = count_grids_by_row_product(3, givens=one_cell)
    assert count == 4
    assert set(cells) == {s.cells for s in oracle.solutions}


def test_reduced_latin_counts_are_known():
    # Fixing the first row and the first column to 1..n leaves the reduced
    # Latin squares: R(n) = 1, 1, 4, 56, 9408 for n = 2..6 (OEIS A000315).
    # Every Latin square is one reduced square with its columns permuted and
    # then its rows 2..n permuted, so L(n) = n!(n-1)! R(n).
    counts = {}
    for n, expected in ((2, 1), (3, 1), (4, 4), (5, 56), (6, 9408)):
        first_row = tuple((c, c) for c in range(1, n + 1))
        first_column = tuple((r * n + 1, r + 1) for r in range(1, n))
        outcome = solve(make_latin_spec(n, first_row + first_column))
        assert outcome.exhausted and len(outcome.solutions) == expected
        assert len({s.cells for s in outcome.solutions}) == expected
        counts[n] = expected
    latin = {n: math.factorial(n) * math.factorial(n - 1) * counts[n] for n in counts}
    assert [latin[n] for n in (2, 3, 4, 5)] == [2, 12, 576, 161280]
    assert latin[6] == 812851200


def test_criterion_8_every_solution_passes_the_reconstruction_check(capsys):
    specs = [
        make_latin_spec(2),
        make_latin_spec(3),
        make_latin_spec(3, givens=((1, 1), (2, 2), (3, 3))),
        make_classic_spec(4),
    ]
    for spec in specs:
        for sol in solve(spec).solutions:
            assert all(r.holds for r in check_necessary(spec, sol))
            assert check_givens(spec, sol).ok
    slowest = 0.0
    for fixture in SUDOKU_9X9_FIXTURES:
        doc = parse_dot_string(fixture)
        spec = make_classic_spec(9, doc.givens())
        start = time.perf_counter()
        outcome = solve(spec, cap=1)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert len(outcome.solutions) == 1
        sol = outcome.solutions[0]
        assert verify_solution(spec, sol).ok
        reports = check_necessary(spec, sol)
        assert len(reports) == 3 and all(r.holds for r in reports)
        assert check_givens(spec, sol).ok
        assert elapsed < 1.0
    with capsys.disabled():
        announce(8, slowest)


def test_search_nodes_and_order_are_pinned():
    # Node counts and solution order of the search, pinned so that a change
    # to its branching rule shows here and is made on purpose.
    nodes = []
    for fixture in SUDOKU_9X9_FIXTURES:
        spec = make_classic_spec(9, parse_dot_string(fixture).givens())
        outcome = solve(spec, cap=2)
        assert len(outcome.solutions) == 1 and outcome.exhausted
        # bench/ still passes selfcheck; it must stay accepted and ignored.
        assert solve(spec, cap=2, selfcheck=False) == outcome
        nodes.append(outcome.nodes_explored)
    assert nodes == [51, 49, 51, 51, 1386]
    outcome = solve(make_classic_spec(9, parse_dot_string(INKALA).givens()), cap=2)
    assert outcome.exhausted and outcome.nodes_explored == 1135
    assert [s.cells for s in outcome.solutions] == [tuple(map(int, INKALA_SOLUTION))]
    pinned = (
        (
            make_latin_spec(4),
            4744,
            576,
            (1, 2, 3, 4, 2, 4, 1, 3, 3, 1, 4, 2, 4, 3, 2, 1),
            (4, 3, 2, 1, 3, 1, 4, 2, 2, 4, 1, 3, 1, 2, 3, 4),
        ),
        (
            make_classic_spec(4),
            2272,
            288,
            (1, 2, 3, 4, 3, 4, 1, 2, 2, 1, 4, 3, 4, 3, 2, 1),
            (4, 3, 2, 1, 2, 1, 4, 3, 3, 4, 1, 2, 1, 2, 3, 4),
        ),
        (
            gerechte_9x9_spec(*GERECHTE_9X9_FIXTURES[0]),
            1084,
            2,
            tuple(map(int, "928647315564139782687492531396514827835721694472968153751283469213875946149356278")),
            tuple(map(int, "928647513364159782687492351596314827853721694472968135731285469215873946149536278")),
        ),
        (
            gerechte_9x9_spec(*GERECHTE_9X9_FIXTURES[1]),
            359,
            4,
            tuple(map(int, "745321968621834597819245673356419782173968245934782156582673419297156834468597321")),
            tuple(map(int, "745621938321864597869245173653419782176938245914782356582376419297153864438597621")),
        ),
    )
    for spec, node_count, count, first, last in pinned:
        outcome = solve(spec)
        assert outcome.nodes_explored == node_count and outcome.exhausted
        assert len(outcome.solutions) == count
        assert outcome.solutions[0].cells == first
        assert outcome.solutions[-1].cells == last
    full = solve(make_latin_spec(4))
    capped = solve(make_latin_spec(4), cap=100)
    assert capped.nodes_explored == 829 and not capped.exhausted
    assert capped.solutions == full.solutions[:100]
    # Cell 3 can hold neither 1 (row), 2 (row) nor 3 (column): a root dead end.
    dead_spec = make_latin_spec(3, givens=((1, 1), (2, 2), (6, 3)))
    dead = solve(dead_spec)
    assert (dead.nodes_explored, dead.solutions, dead.exhausted) == (0, [], True)
    # Every cell has a candidate, but 4 has no place in row 2: columns 1-3
    # hold a 4 and cell 8 holds 2.  A root dead end too.
    dead_place = solve(make_latin_spec(4, givens=((13, 4), (11, 2), (3, 4), (10, 4), (8, 2))))
    assert (
        dead_place.nodes_explored, dead_place.solutions, dead_place.exhausted,
        dead_place.diagnostics,
    ) == (0, [], True, [])


def test_empty_grid_searches_are_pinned():
    # The empty grids hard-search solves at cap=1: their node counts and
    # first solutions, pinned by a digest of the cells and held to the
    # reference search, which recounts every group at every node.
    # A search that branches on the wrong cell can run for hours, so the
    # test fails after 30 s instead (it takes a few seconds at most).
    with time_bound(30):
        for spec, node_count, digest in (
            (make_latin_spec(20), 400, "d31245f3b0345488"),
            (make_classic_spec(16), 256, "bee0e2fbbb520ffe"),
            (make_classic_spec(25), 628, "e53a79bc63806bbd"),
        ):
            outcome = solve(spec, cap=1)
            (sol,) = outcome.solutions
            assert outcome.nodes_explored == node_count and not outcome.exhausted
            assert hashlib.sha256(bytes(sol.cells)).hexdigest()[:16] == digest
            assert reference_search(spec, 1) == ([sol.cells], node_count, False)


def test_large_empty_grid_searches_are_pinned():
    # The empty classic 36x36 and 49x49 at cap=1, the first grids whose
    # candidate counts take six bit slices.  The reference search is left
    # out: it already takes about a second on the 25x25.
    # Bounded as above.
    with time_bound(30):
        for n, node_count, digest in (
            (36, 1337, "e6ece169e52eb09d"),
            (49, 2472, "ac550b5403576e47"),
        ):
            outcome = solve(make_classic_spec(n), cap=1)
            (sol,) = outcome.solutions
            assert outcome.nodes_explored == node_count and not outcome.exhausted
            assert hashlib.sha256(bytes(sol.cells)).hexdigest()[:16] == digest


def test_a_dead_place_in_a_group_whose_first_cell_is_given():
    # Regions fitted to a 6x6 Latin square.  After the branch on cell 1, a
    # value has no place left in row 4, whose first cell (19) is given; the
    # search backtracks from there and still finds the one solution.
    regions = (
        (18, 23, 25, 26, 30, 32), (1, 4, 5, 9, 10, 19), (2, 3, 15, 24, 27, 35),
        (13, 17, 28, 31, 33, 34), (8, 11, 14, 16, 20, 22), (6, 7, 12, 21, 29, 36),
    )
    givens = ((7, 6), (9, 4), (13, 3), (14, 2), (19, 5), (31, 4))
    spec = make_gerechte_spec(Partition(6, regions), givens)
    outcome = solve(spec)
    assert (outcome.nodes_explored, len(outcome.solutions), outcome.exhausted) == (36, 1, True)
    assert reference_search(spec) == ([s.cells for s in outcome.solutions], 36, True)


def test_a_dead_value_above_the_single_the_pass_stops_at():
    # At the root the pass stops at row 1 on 3, whose one place is cell 2.
    # But 4 has no place in the row: cells 3 and 5 are given, and columns
    # 1, 2, 4 and 6 hold a 4.  So the root is a dead end, with no node.
    givens = (
        (3, 6), (5, 5), (8, 4), (10, 3), (13, 4), (15, 5),
        (17, 2), (18, 3), (22, 4), (29, 3), (30, 4), (31, 3),
    )
    spec = make_latin_spec(6, givens)
    outcome = solve(spec)
    assert (outcome.solutions, outcome.nodes_explored) == ([], 0)
    assert outcome.exhausted and outcome.diagnostics == []
    assert reference_search(spec) == ([], 0, True)


def test_places_locked_in_a_region_leave_its_other_cells():
    # Regions fitted to a 6x6 Latin square, 29 cells free.  At the root, 2
    # can go in row 4 only at cells 20-23: 19 holds 5, and 24 shares column
    # 6 with the 2 at 12.  Region 1 holds all four, so its 2 is in row 4 and
    # 2 leaves the region's other free cell, 3.  With three more such steps
    # every placement is forced: 29 nodes and no branch, where the search
    # without locked places takes 31.
    regions = (
        (3, 11, 20, 21, 22, 23), (2, 8, 18, 26, 30, 31), (1, 16, 19, 24, 35, 36),
        (6, 7, 12, 14, 17, 27), (5, 9, 13, 25, 32, 33), (4, 10, 15, 28, 29, 34),
    )
    givens = ((4, 5), (5, 6), (6, 4), (12, 2), (19, 5), (30, 3), (33, 3))
    spec = make_gerechte_spec(Partition(6, regions), givens)
    outcome = solve(spec)
    assert (outcome.nodes_explored, len(outcome.solutions), outcome.exhausted) == (29, 1, True)
    assert reference_search(spec) == ([s.cells for s in outcome.solutions], 29, True)
    groups = rows_and_columns(6) + [list(region) for region in regions]
    assert exact_cover_solutions(6, groups, givens) == [outcome.solutions[0].cells]
    # Rows and columns share one cell, so places never lock in a Latin spec.
    latin = [set(group) for group in make_latin_spec(6).distinct_groups]
    assert all(len(a & b) < 2 for a, b in combinations(latin, 2))


def test_criterion_9_negative_suite(capsys):
    spec = make_latin_spec(3)
    detected = 0
    injected = 0

    # All-ones: every constraint reports zero rows, nothing reconstructs.
    injected += 1
    reports = check_necessary(spec, Assignment(3, (1,) * 9))
    assert all(not r.holds and r.zero_rows for r in reports)
    with pytest.raises(NotApplicableError) as info:
        gsgn((1, 0, -2))
    assert info.value.index == 2
    detected += 1

    # Duplicate inside a row: verification names the exact clause and row.
    injected += 1
    dup = Assignment(3, (1, 1, 2, 2, 3, 1, 3, 2, 3))
    result = verify_solution(spec, dup)
    assert not result.ok and result.clause == "constraint"
    assert "constraint 1, row 1" in result.detail
    reports = check_necessary(spec, dup)
    assert not reports[0].holds and 1 in reports[0].zero_rows
    detected += 1

    # Out-of-range values: range clause fires, reconstruction mismatches.
    injected += 1
    wild = Assignment(3, (7, 1, 2, 1, 2, 9, 2, 7, 1))
    result = verify_solution(spec, wild)
    assert not result.ok and result.clause == "range"
    assert "cell 1" in result.detail
    detected += 1

    # A full batch of random corruptions of a valid square must all be caught.
    rng = random.Random(107)
    base = list(X3)
    for _ in range(100):
        cells = list(base)
        kind = rng.choice(["dup", "range"])
        i = rng.randrange(9)
        injected += 1
        if kind == "dup":
            j = (i + 1) % 3 + (i // 3) * 3  # another cell in the same row
            cells[i] = cells[j]
        else:
            cells[i] = rng.choice([0, 4, -2, 11])
        if not verify_solution(spec, Assignment(3, cells)).ok:
            detected += 1
    assert detected == injected
    with capsys.disabled():
        announce(9)
