import random
import sys
from contextlib import contextmanager
from itertools import product

import pytest

import gensudoku.problems
from gensudoku import (
    Assignment,
    DimensionError,
    GenSudokuError,
    InputTypeError,
    InvalidCapError,
    Partition,
    Permutation,
    ProblemSpec,
    SearchSpaceError,
    SelfCheckError,
    SpecError,
    brute_force,
    build_constraint_matrix,
    build_difference_matrix,
    check_givens,
    check_necessary,
    identity_permutation,
    make_classic_spec,
    make_gerechte_spec,
    make_latin_spec,
    parse_dot_string,
    solve,
    verify_solution,
)
from reference_data import (
    INKALA,
    REGION3_GROUPS,
    X3,
    box_groups,
    count_grids_by_row_product,
    exact_cover_solutions,
    reference_search,
    reference_verify,
    rows_and_columns,
    sudoku_grid,
    time_bound,
)

REGIONS4 = ((1, 2, 3, 6), (4, 7, 8, 12), (5, 9, 10, 13), (11, 14, 15, 16))
LATIN3_GRID = (1, 2, 3, 2, 3, 1, 3, 1, 2)
CLASSIC4_GRID = (1, 2, 3, 4, 3, 4, 1, 2, 2, 1, 4, 3, 4, 3, 2, 1)
# A classic 4x4 with six blanks, one of the oracle workload's family of grids.
CLASSIC4_SIX_BLANKS = tuple(
    (cell, value)
    for cell, value in enumerate(CLASSIC4_GRID, start=1)
    if cell not in (1, 6, 8, 11, 13, 16)
)


@contextmanager
def _recursion_limit_near_here():
    """Allow about 100 Python frames above the caller's while the block runs."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestVerifySolution:
    def test_latin_example(self):
        spec = make_latin_spec(3)
        assert verify_solution(spec, Assignment(3, X3)).ok

    def test_all_ones_fails_first_constraint_row(self):
        spec = make_latin_spec(3)
        result = verify_solution(spec, Assignment(3, (1,) * 9))
        assert not result.ok
        assert result.clause == "constraint"
        assert "constraint 1, row 1" in result.detail

    def test_out_of_range(self):
        spec = make_latin_spec(2)
        result = verify_solution(spec, Assignment(2, (0, 2, 2, 1)))
        assert result.clause == "range"

    def test_wrong_length_raises_before_range(self):
        spec = make_latin_spec(2)
        for cells in ((5,) * 9, (1,) * 9):
            with pytest.raises(DimensionError, match="expected length 4, got 9"):
                verify_solution(spec, Assignment(3, cells))

    def test_given_mismatch(self):
        spec = make_latin_spec(3, givens=((1, 3),))
        result = verify_solution(spec, Assignment(3, X3))
        assert result.clause == "given"

    def test_swap_inside_row_caught_by_other_constraint(self):
        spec = make_classic_spec(4)
        base = solve(spec, cap=1).solutions[0]
        cells = list(base.cells)
        cells[0], cells[1] = cells[1], cells[0]
        result = verify_solution(spec, Assignment(4, tuple(cells)))
        assert not result.ok
        assert result.clause == "constraint"

    def test_group_values_form_full_alphabet_iff_verified(self):
        rng = random.Random(41)
        spec = make_latin_spec(3)
        groups = [g for per in spec.constraint_groups() for g in per]
        for _ in range(200):
            cells = tuple(rng.randint(1, 3) for _ in range(9))
            ok = verify_solution(spec, Assignment(3, cells)).ok
            sets_ok = all(
                {cells[c - 1] for c in group} == {1, 2, 3} for group in groups
            )
            assert ok == sets_ok

    @pytest.mark.parametrize(
        "cells", [(1.0, 2.0, 2.0, 1.0), (True, 2, 2, 1), (1, 2, 2, "1"), (1, 2, 2, None)]
    )
    def test_non_int_cells_raise_a_typed_type_error(self, cells):
        with pytest.raises(InputTypeError, match="must be an int") as info:
            verify_solution(make_latin_spec(2), Assignment(2, cells))
        assert isinstance(info.value, GenSudokuError)
        assert isinstance(info.value, TypeError)

    def test_matches_the_reference_clause_loop(self):
        # Latin squares of each size (so a region may repeat a value), with
        # two cells of a random group of a random constraint swapped (so
        # the groups crossing it may repeat one), a cell set to a value in
        # 0..n + 1, or left alone (so a given may not stand).  The verdict
        # and its wording must equal the set-based reference's.  The last
        # two specs repeat the rows as constraint 3, in reverse block order
        # and in order, so a row is always named by constraint 1.
        rng = random.Random(47)
        latin3 = make_latin_spec(3).constraints
        reversed_rows = Permutation((7, 8, 9, 4, 5, 6, 1, 2, 3))
        rows4 = rows_and_columns(4)[:4]
        for spec, constraint_ids in (
            (make_latin_spec(3, givens=((5, 2),)), {1, 2}),
            (make_classic_spec(4, givens=((1, 1), (16, 1))), {1, 2, 3}),
            (make_gerechte_spec(Partition(4, REGIONS4), givens=((6, 3),)), {1, 2, 3}),
            (ProblemSpec(3, latin3[:2] + (reversed_rows,), ((5, 2),)), {1, 2}),
            (make_gerechte_spec(Partition(4, rows4), givens=((6, 3),)), {1, 2}),
        ):
            n = spec.n
            latin = ProblemSpec(n, spec.constraints[:2])
            grids = [s.cells for s in solve(latin).solutions]
            results = []
            for _ in range(600):
                cells = list(rng.choice(grids))
                kind = rng.randrange(3)
                if kind == 0:
                    perm = rng.choice(spec.constraints)
                    block = rng.randrange(n)
                    group = perm.images[block * n : (block + 1) * n]
                    p, m = rng.sample(group, 2)
                    cells[p - 1], cells[m - 1] = cells[m - 1], cells[p - 1]
                elif kind == 1:
                    cells[rng.randrange(n * n)] = rng.randint(0, n + 1)
                result = verify_solution(spec, Assignment(n, cells))
                assert (result.ok, result.clause, result.detail) == reference_verify(spec, cells)
                results.append(result)
            assert {r.clause for r in results} == {None, "range", "constraint", "given"}
            named = {int(r.detail.split(",")[0].split()[1]) for r in results if r.clause == "constraint"}
            assert named == constraint_ids

    def test_latin_repeat_in_a_column_names_constraint_2(self):
        # Latin's columns are constraints 2 and 3; the first names them.
        spec = make_latin_spec(3)
        cells = (2, 1, 3, 2, 1, 3, 1, 3, 2)
        result = verify_solution(spec, Assignment(3, cells))
        assert result.detail == "constraint 2, row 1: zero difference"
        assert (result.ok, result.clause, result.detail) == reference_verify(spec, cells)


class TestBruteForce:
    @pytest.mark.parametrize(
        "spec",
        [
            make_latin_spec(2),
            make_latin_spec(3),
            make_latin_spec(3, givens=((1, 1), (2, 2), (3, 3))),
            make_latin_spec(3, givens=((1, 1), (4, 1))),
            make_gerechte_spec(Partition(3, REGION3_GROUPS)),
            make_latin_spec(3, givens=enumerate(LATIN3_GRID, start=1)),
            make_latin_spec(3, givens=enumerate(LATIN3_GRID[:8] + (1,), start=1)),
            make_classic_spec(4, givens=CLASSIC4_SIX_BLANKS),
        ],
    )
    def test_equals_a_product_filter_by_the_reference(self, spec):
        n = spec.n
        given_map = dict(spec.givens)
        free = [i for i in range(n * n) if i + 1 not in given_map]
        expected, nodes = [], 0
        for fill in product(range(1, n + 1), repeat=len(free)):
            nodes += 1
            cells = [given_map.get(i + 1, 0) for i in range(n * n)]
            for cell, value in zip(free, fill):
                cells[cell] = value
            if reference_verify(spec, cells)[0]:
                expected.append(tuple(cells))
        outcome = brute_force(spec)
        assert [s.cells for s in outcome.solutions] == expected
        assert outcome.nodes_explored == nodes
        assert outcome.exhausted

    @pytest.mark.parametrize(
        "spec",
        [
            make_latin_spec(3, givens=((1, 1), (2, 2), (3, 3))),
            make_latin_spec(3, givens=enumerate(LATIN3_GRID, start=1)),
            make_classic_spec(4, givens=CLASSIC4_SIX_BLANKS),
        ],
        ids=["latin3-first-row", "latin3-full", "classic4-six-blanks"],
    )
    def test_certifies_every_fill_and_builds_only_accepted_ones(self, spec, monkeypatch):
        # The bench credits brute_force with n ** free candidates: none may be
        # skipped.  Each is tested as bits; only an accepted one is built, as values.
        certificate, build = gensudoku.problems._certificate, gensudoku.problems.Assignment
        tested, accepted, built = [], [], []

        def counting_certificate(problem):
            certify = certificate(problem)

            def counting(bits):
                tested.append(tuple(bits))
                fault = certify(bits)
                if fault is None:
                    accepted.append(tuple(bit.bit_length() - 1 for bit in bits))
                return fault

            return counting

        def building(n, cells):
            built.append(tuple(cells))
            return build(n, cells)

        monkeypatch.setattr(gensudoku.problems, "_certificate", counting_certificate)
        monkeypatch.setattr(gensudoku.problems, "Assignment", building)
        outcome = brute_force(spec)
        n = spec.n
        assert len(tested) == len(set(tested)) == n ** (n * n - len(spec.givens))
        assert outcome.nodes_explored == len(tested)
        assert built == accepted == [s.cells for s in outcome.solutions]
        assert accepted

    def test_latin3_matches_independent_enumeration(self):
        count, squares = count_grids_by_row_product(3)
        outcome = brute_force(make_latin_spec(3))
        assert len(outcome.solutions) == count == 12
        assert {s.cells for s in outcome.solutions} == set(squares)

    def test_guard_refuses_large_spaces(self):
        with pytest.raises(SearchSpaceError):
            brute_force(make_classic_spec(4))


@pytest.mark.parametrize(
    "run,spec,tests",
    [
        (brute_force, make_classic_spec(4, givens=CLASSIC4_SIX_BLANKS), 4**6),
        (solve, make_classic_spec(4), 288),
    ],
    ids=["brute_force", "solve"],
)
def test_certificate_is_built_once_per_call(run, spec, tests, monkeypatch):
    # One build per call, then one test per fill-in (brute_force) or per
    # solution (solve): the constants are read once, not per grid.
    certificate, built, tested = gensudoku.problems._certificate, [], []

    def counting_certificate(problem):
        built.append(problem)
        certify = certificate(problem)

        def counting(bits):
            tested.append(1)
            return certify(bits)

        return counting

    monkeypatch.setattr(gensudoku.problems, "_certificate", counting_certificate)
    run(spec)
    assert built == [spec]
    assert len(tested) == tests


@pytest.mark.parametrize(
    "spec,cap,count",
    [
        (make_classic_spec(4), None, 288),
        (make_latin_spec(5, givens=((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))), None, 1344),
        (make_gerechte_spec(Partition(4, REGIONS4)), None, 96),
        (make_classic_spec(9, parse_dot_string(INKALA).givens()), 2, 1),
    ],
    ids=["classic4-lock-steps", "latin5-first-row", "gerechte4", "inkala-cap2-dead-ends"],
)
def test_certificate_sees_each_solutions_one_hot_grid(spec, cap, count, monkeypatch):
    # solve certifies the one-hot grid it keeps as it places values, across
    # backtracks; it goes on writing that list, so the recorder copies it.
    certificate, seen = gensudoku.problems._certificate, []

    def recording_certificate(problem):
        certify = certificate(problem)

        def recording(bits):
            seen.append(list(bits))
            return certify(bits)

        return recording

    monkeypatch.setattr(gensudoku.problems, "_certificate", recording_certificate)
    outcome = solve(spec, cap=cap)
    assert len(outcome.solutions) == count
    assert seen == [[1 << value for value in s.cells] for s in outcome.solutions]


class TestSolve:
    def test_matches_brute_force_sets(self):
        fixtures = [
            make_latin_spec(2),
            make_latin_spec(3),
            make_latin_spec(3, givens=((1, 1), (2, 2), (3, 3))),
            make_gerechte_spec(Partition(3, REGION3_GROUPS)),
        ]
        for spec in fixtures:
            fast = solve(spec)
            slow = brute_force(spec)
            assert {s.cells for s in fast.solutions} == {
                s.cells for s in slow.solutions
            }
            assert fast.exhausted and slow.exhausted

    def test_deterministic(self):
        spec = make_latin_spec(3)
        a = solve(spec)
        b = solve(spec)
        assert [s.cells for s in a.solutions] == [s.cells for s in b.solutions]
        assert a.nodes_explored == b.nodes_explored

    def test_cap_limits_output(self):
        outcome = solve(make_latin_spec(3), cap=5)
        assert len(outcome.solutions) == 5
        assert not outcome.exhausted

    @pytest.mark.parametrize("cap,exhausted", [(12, False), (13, True), (None, True)])
    def test_cap_boundary(self, cap, exhausted):
        # Reaching the cap on the last solution still stops short of
        # exhausting the search; a cap above the count exhausts it.
        outcome = solve(make_latin_spec(3), cap=cap)
        assert (len(outcome.solutions), outcome.nodes_explored) == (12, 87)
        assert outcome.exhausted is exhausted

    @pytest.mark.parametrize("cap,exhausted", [(1, False), (2, True)])
    def test_cap_on_a_filled_grid(self, cap, exhausted):
        # The only solution is emitted before any node, with the stack empty.
        spec = make_latin_spec(3, givens=tuple(enumerate(X3, start=1)))
        outcome = solve(spec, cap=cap)
        assert [s.cells for s in outcome.solutions] == [X3]
        assert outcome.nodes_explored == 0
        assert outcome.exhausted is exhausted

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(InvalidCapError, match=f"got {cap}$"):
            solve(make_latin_spec(3), cap=cap)

    @pytest.mark.parametrize(
        "cap,kind", [(1.5, "float"), (2.0, "float"), (True, "bool"), ("2", "str")]
    )
    def test_cap_not_an_int_rejected(self, cap, kind):
        with pytest.raises(InvalidCapError, match=f"cap must be an int, got {kind}$"):
            solve(make_latin_spec(3), cap=cap)

    def test_selfcheck_failure_carries_grid(self, monkeypatch):
        # A certificate that blames the first given rejects every grid, and
        # verify_solution words the fault it names.
        monkeypatch.setattr(
            gensudoku.problems, "_certificate", lambda p: lambda bits: len(p.distinct_groups)
        )
        with pytest.raises(
            SelfCheckError, match="invalid solution: cell 1 holds 1, given is 1$"
        ) as info:
            solve(make_latin_spec(2, givens=((1, 1),)))
        assert info.value.grid == Assignment(2, (1, 2, 2, 1))

    def test_certificate_agrees_with_verify_solution(self):
        # Grids of the spec without its givens, some with cells set to a
        # value in 0..n + 1: repeats, out-of-range values and givens that
        # do not stand, alone or together.
        rng = random.Random(43)
        for spec in (
            make_latin_spec(3, givens=((5, 2),)),
            make_classic_spec(4, givens=((1, 1), (16, 1))),
            make_gerechte_spec(Partition(4, REGIONS4), givens=((6, 3),)),
        ):
            n = spec.n
            unconstrained = ProblemSpec(n, spec.constraints)
            grids = [s.cells for s in solve(unconstrained).solutions]
            clauses = set()
            for _ in range(300):
                cells = list(rng.choice(grids))
                for _ in range(rng.choice((0, 0, 1, 2))):
                    cells[rng.randrange(n * n)] = rng.randint(0, n + 1)
                result = verify_solution(spec, Assignment(n, cells))
                bits = [1 << value for value in cells]
                assert (gensudoku.problems._certificate(spec)(bits) is None) == result.ok
                clauses.add(result.clause)
            assert clauses == {None, "range", "constraint", "given"}

    def test_solutions_pass_all_checks(self):
        # solve certifies with its one-pass bitmask check only;
        # verify_solution, the reconstruction identity and the givens check
        # are the oracles run here.
        for spec, expected in (
            (make_latin_spec(3, givens=((1, 2),)), 4),
            (make_classic_spec(4), 288),
            (make_latin_spec(4), 576),
            (
                make_gerechte_spec(Partition(4, REGIONS4)),
                count_grids_by_row_product(4, REGIONS4)[0],
            ),
        ):
            outcome = solve(spec)
            assert outcome.exhausted and len(outcome.solutions) == expected
            for sol in outcome.solutions:
                assert verify_solution(spec, sol).ok
                assert all(r.holds for r in check_necessary(spec, sol))
                assert check_givens(spec, sol).ok

    def test_inconsistent_givens_diagnosed(self):
        outcome = solve(make_latin_spec(3, givens=((1, 1), (2, 1))))
        assert outcome.solutions == []
        assert outcome.exhausted
        assert outcome.diagnostics
        # Cells 1 and 4 share column 1 and cells 4 and 5 share row 2: the
        # first group in constraint order is reported, at its first repeat.
        outcome = solve(make_latin_spec(3, givens=((1, 1), (4, 1), (5, 1))))
        assert outcome.diagnostics == [
            "givens conflict: cells 4 and 5 both hold 1 in one constraint group"
        ]
        assert outcome.exhausted
        assert outcome.nodes_explored == 0
        assert outcome.solutions == []

    def test_first_givens_conflict_in_constraint_order(self):
        # Column 1 and box 1 (cells 1, 5) repeat 3 at lower cells than row 4
        # does, but rows come first.  Row 4 holds 1 2 2 1: its first repeat
        # in cell order is cell 15, of cell 14's 2, not cell 16's 1.
        givens = ((1, 3), (5, 3), (13, 1), (14, 2), (15, 2), (16, 1))
        outcome = solve(make_classic_spec(4, givens))
        assert outcome.diagnostics == [
            "givens conflict: cells 14 and 15 both hold 2 in one constraint group"
        ]
        assert outcome.solutions == [] and outcome.nodes_explored == 0
        assert outcome.exhausted

    def test_search_depth_does_not_use_the_call_stack(self):
        # An empty Latin 16x16 has 256 free cells: a recursive search would
        # need one frame per placed cell, far beyond 100 above this frame.
        # A search fault can run for minutes, so the test fails after 30 s.
        with time_bound(30), _recursion_limit_near_here():
            outcome = solve(make_latin_spec(16), cap=1)
        assert len(outcome.solutions) == 1 and not outcome.exhausted

    def test_empty_classic_25x25_finishes(self):
        # MRV alone stalls here; hidden singles and dead places finish it.
        # Its 625 free cells are placed on the explicit stack, not the
        # call stack.  Bounded as above.
        spec = make_classic_spec(25)
        with time_bound(30), _recursion_limit_near_here():
            outcome = solve(spec, cap=1)
        assert len(outcome.solutions) == 1 and not outcome.exhausted
        assert outcome.nodes_explored == 653
        (sol,) = outcome.solutions
        assert verify_solution(spec, sol).ok
        assert all(r.holds for r in check_necessary(spec, sol))

    def test_a_group_holding_the_first_and_last_places_only_is_no_partner(self):
        # Region 4 holds cells 5, 7 and 8 of row 2, but not 6, so two groups
        # share three cells.  With 1 given at cell 3, 1 can go in row 2 only
        # at cells 5, 6 and 8 (cell 7 shares column 3 with the given).  Region
        # 4 holds the first and the last of these places but not the middle
        # one, so 1 need not lie in it and stays a candidate of its cell 9.
        # Every solution puts 1 at cells 6 and 9: taking it from them, as if
        # region 4 held all three places, would leave none.
        regions = ((3, 10, 11, 13), (1, 6, 12, 14), (2, 4, 15, 16), (5, 7, 8, 9))
        spec = make_gerechte_spec(Partition(4, regions), [(3, 1)])
        outcome = solve(spec)
        found = [s.cells for s in outcome.solutions]
        assert reference_search(spec) == (found, 63, True)
        groups = rows_and_columns(4) + [list(region) for region in regions]
        assert sorted(found) == sorted(exact_cover_solutions(4, groups, [(3, 1)]))
        assert len(found) == 6 and all(grid[5] == grid[8] == 1 for grid in found)

    def test_givens_respected_in_all_solutions(self):
        outcome = solve(make_latin_spec(3, givens=((5, 1),)))
        assert outcome.solutions
        assert all(s.cells[4] == 1 for s in outcome.solutions)


class TestConstructors:
    def test_classic_requires_square(self):
        with pytest.raises(ValueError):
            make_classic_spec(3)

    def test_classic4_shape(self):
        spec = make_classic_spec(4)
        assert len(spec.constraints) == 3
        matrices = spec.constraint_matrices()
        assert all(m.row_count == 24 for m in matrices)

    def test_row_partition_duplicates_row_constraint(self):
        part = Partition(3, ((1, 2, 3), (4, 5, 6), (7, 8, 9)))
        spec = make_gerechte_spec(part)
        assert spec.constraints[2].images == spec.constraints[0].images

    def test_gerechte_example_square_verifies(self):
        spec = make_gerechte_spec(Partition(3, REGION3_GROUPS))
        assert verify_solution(spec, Assignment(3, X3)).ok

    def test_subsquare_partition_equals_classic(self):
        part = Partition(4, ((1, 2, 5, 6), (3, 4, 7, 8), (9, 10, 13, 14), (11, 12, 15, 16)))
        gerechte = make_gerechte_spec(part)
        classic = make_classic_spec(4)
        assert [p.images for p in gerechte.constraints] == [
            p.images for p in classic.constraints
        ]

    def test_rejects_bad_givens(self):
        with pytest.raises(ValueError):
            make_latin_spec(3, givens=((1, 4),))
        with pytest.raises(ValueError):
            make_latin_spec(3, givens=((1, 1), (1, 2)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_latin_spec("3"),
            lambda: make_latin_spec(2.0),
            lambda: make_classic_spec(4.0),
            lambda: make_classic_spec(True),
            lambda: make_latin_spec(3, givens=((1, "2"),)),
            lambda: make_latin_spec(3, givens=((True, 2),)),
            lambda: make_latin_spec(3, givens=((1, 2.0),)),
            lambda: make_latin_spec(3, givens=None),
            lambda: make_latin_spec(3, givens=(5,)),
            lambda: make_gerechte_spec(REGION3_GROUPS),
            lambda: ProblemSpec(3, None),
            lambda: ProblemSpec(3, ((1, 2, 3),)),
            lambda: Partition(2.0, ((1, 2), (3, 4))),
            lambda: Partition(2, None),
            lambda: Permutation(None),
            lambda: Assignment("2", (1, 2, 2, 1)),
            lambda: Assignment(2, 1221),
        ],
    )
    def test_wrong_types_raise_a_typed_type_error(self, build):
        with pytest.raises(InputTypeError) as info:
            build()
        assert isinstance(info.value, GenSudokuError)
        assert isinstance(info.value, TypeError)

    def test_given_that_is_not_a_pair_is_a_spec_error(self):
        for givens in (((1, 2, 3),), ((1,),), ("12345",)):
            with pytest.raises(SpecError, match="is not a \\(cell, value\\) pair"):
                make_latin_spec(3, givens=givens)

    def test_spec_errors_are_typed(self):
        for build, message in (
            (lambda: make_latin_spec(3, givens=((1, 4),)), "given value 4 outside 1..3"),
            (lambda: make_classic_spec(3), "n must be a perfect square >= 4, got 3"),
            (lambda: make_classic_spec(-1), "n must be a perfect square >= 4, got -1"),
            (lambda: build_difference_matrix(0), "n must be >= 1, got 0"),
            (lambda: ProblemSpec(1, (identity_permutation(1),)), "n must be >= 2, got 1"),
            (
                lambda: ProblemSpec(3, ()),
                "at least one constraint permutation is required",
            ),
            (
                lambda: ProblemSpec(3, (identity_permutation(2),)),
                "constraint permutation size 4 != n^2 = 9",
            ),
            (
                lambda: ProblemSpec(3, (identity_permutation(3),), ((10, 1),)),
                "given cell 10 outside 1..9",
            ),
            (
                lambda: build_constraint_matrix(1, identity_permutation(1)),
                "n must be >= 2, got 1",
            ),
        ):
            with pytest.raises(SpecError) as info:
                build()
            assert str(info.value) == message
            assert isinstance(info.value, GenSudokuError)
            assert isinstance(info.value, ValueError)


def _classic9_images():
    """Rows, columns and boxes of the 9x9 grid, built without the library."""
    groups = rows_and_columns(9) + box_groups(3)
    return [sum(groups[k : k + 9], []) for k in (0, 9, 18)]


class TestEqualConstraints:
    """Specs search alike when their constraints are equal, and only then."""

    GRID9 = tuple(sudoku_grid(3, range(9), range(9), range(9)))

    def test_fresh_permutations_give_the_classic_groups_and_search(self):
        blanks = set(random.Random(21).sample(range(81), 50))
        givens = tuple(
            (i + 1, v) for i, v in enumerate(self.GRID9) if i not in blanks
        )
        built = make_classic_spec(9, givens)
        fresh = ProblemSpec(9, tuple(map(Permutation, _classic9_images())), givens)
        assert fresh.constraints is not built.constraints
        assert fresh.compiled_groups == built.compiled_groups
        a, b = solve(built), solve(fresh)
        assert [s.cells for s in a.solutions] == [s.cells for s in b.solutions]
        assert (a.nodes_explored, a.exhausted) == (b.nodes_explored, b.exhausted)
        assert self.GRID9 in {s.cells for s in a.solutions}

    def test_interleaved_specs_keep_their_own_searches(self):
        tilings = {
            "gerechte-1": REGIONS4,
            "gerechte-2": ((1, 2, 6, 7), (3, 4, 8, 12), (5, 9, 13, 14), (10, 11, 15, 16)),
            "classic": ((1, 2, 5, 6), (3, 4, 7, 8), (9, 10, 13, 14), (11, 12, 15, 16)),
        }

        def build(name, givens=()):
            if name == "classic":
                return make_classic_spec(4, givens)
            return make_gerechte_spec(Partition(4, tilings[name]), givens)

        # Eight blanks in the first grid of each family keep brute_force small.
        puzzles = {
            name: tuple(enumerate(solve(build(name), cap=1).solutions[0].cells[8:], 9))
            for name in tilings
        }
        first = {}
        for name in [*tilings, *tilings]:
            for givens in ((), puzzles[name]):
                outcome = solve(build(name, givens))
                run = ([s.cells for s in outcome.solutions], outcome.nodes_explored)
                key = (name, givens)
                if key not in first:
                    first[key] = run
                    expected = set(count_grids_by_row_product(4, tilings[name], givens)[1])
                    assert set(run[0]) == expected
                    if givens:
                        oracle = brute_force(build(name, givens)).solutions
                        assert expected == {s.cells for s in oracle}
                assert run == first[key]
        assert count_grids_by_row_product(4, REGIONS4) != count_grids_by_row_product(
            4, tilings["gerechte-2"]
        )
