import random

import pytest

from gensudoku import (
    Assignment,
    ConstraintMatrix,
    DimensionError,
    InputTypeError,
    NotApplicableError,
    ParityError,
    Partition,
    build_constraint_matrix,
    build_difference_matrix,
    check_givens,
    check_necessary,
    gsgn,
    identity_permutation,
    make_latin_spec,
    pairwise_sign_sum,
    partition_permutation,
    Permutation,
    ProblemSpec,
    rank_of_difference_matrix,
    reconstruct,
    render_tableau,
    sign_sum_closed_form,
    transpose_permutation,
)
from reference_data import REGION3_GROUPS, X3, X9, X9_SIGNS


class TestGsgn:
    def test_componentwise(self):
        assert gsgn((3, -1, 7)) == (1, -1, 1)

    def test_zero_component_rejected_with_index(self):
        with pytest.raises(NotApplicableError) as info:
            gsgn((1, 0, -2))
        assert info.value.index == 2

    def test_reference_vector(self):
        diffs = build_difference_matrix(9).apply(X9)
        assert gsgn(diffs) == X9_SIGNS


class TestPairwiseSignSum:
    def test_reference_first_component(self):
        assert pairwise_sign_sum(X9, 1) == -6

    def test_two_elements(self):
        assert pairwise_sign_sum((5, 3), 1) == 1
        for i in (0, 3):
            with pytest.raises(DimensionError, match=f"^index {i} outside 1..2$"):
                pairwise_sign_sum((1, 2), i)

    def test_agrees_with_closed_form(self):
        x = (5, 3, 4, 1, 2)
        assert pairwise_sign_sum(x, 3) == sign_sum_closed_form(4, 5) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(NotApplicableError):
            pairwise_sign_sum((1, 2, 1), 1)

    def test_matches_matrix_route(self):
        # Independent double-sum oracle against the sparse matrix product.
        rng = random.Random(23)
        for n in range(2, 11):
            matrix = build_difference_matrix(n)
            for _ in range(200):
                x = rng.sample(range(-40, 41), n)
                column_sums = matrix.apply_transpose(gsgn(matrix.apply(x)))
                for i in range(1, n + 1):
                    assert column_sums[i - 1] == pairwise_sign_sum(x, i)

    def test_closed_form_on_permutations(self):
        rng = random.Random(29)
        for n in range(1, 11):
            for _ in range(200):
                x = rng.sample(range(1, n + 1), n)
                for i in range(1, n + 1):
                    assert pairwise_sign_sum(x, i) == sign_sum_closed_form(x[i - 1], n)


class TestSignSumClosedForm:
    def test_values(self):
        assert sign_sum_closed_form(5, 9) == 0
        assert sign_sum_closed_form(9, 9) == 8
        assert sign_sum_closed_form(1, 2) == -1


class TestReconstructValues:
    def test_reference_group(self):
        assert reconstruct(build_difference_matrix(9), X9) == X9

    def test_all_permutations_of_small_alphabets(self):
        import itertools

        for n in range(2, 6):
            matrix = build_difference_matrix(n)
            for x in itertools.permutations(range(1, n + 1)):
                assert reconstruct(matrix, x) == x


class TestReconstruct:
    def test_repeated_row_tableau(self):
        cells = X9 * 9
        matrix = build_constraint_matrix(9, identity_permutation(9))
        assert reconstruct(matrix, cells) == cells

    def test_region_example(self):
        part = Partition(3, REGION3_GROUPS)
        matrix = build_constraint_matrix(3, partition_permutation(part))
        assert reconstruct(matrix, X3) == X3

    def test_n2_identity(self):
        matrix = build_constraint_matrix(2, identity_permutation(2))
        assert reconstruct(matrix, (1, 2, 2, 1)) == (1, 2, 2, 1)

    def test_zero_difference_rejected_with_row(self):
        matrix = build_constraint_matrix(2, identity_permutation(2))
        with pytest.raises(NotApplicableError) as info:
            reconstruct(matrix, (1, 1, 2, 1))
        assert info.value.index == 1

    def test_out_of_range_input_is_total(self):
        # The algebra stays defined off-range; only the fixed-point claim lapses.
        matrix = build_constraint_matrix(2, identity_permutation(2))
        assert reconstruct(matrix, (5, 9, 1, 2)) == (1, 2, 1, 2)

    def test_random_permuted_assignments(self):
        rng = random.Random(31)
        for n in range(2, 10):
            for _ in range(100):
                perm = Permutation(tuple(rng.sample(range(1, n * n + 1), n * n)))
                blockwise = [v for _ in range(n) for v in rng.sample(range(1, n + 1), n)]
                cells = perm.apply_to_vector(blockwise)
                matrix = build_constraint_matrix(n, perm)
                assert reconstruct(matrix, cells) == cells

    def test_group_order_does_not_change_result(self):
        # Reordering the partition's groups permutes constraint rows only.
        for groups in (
            REGION3_GROUPS,
            (REGION3_GROUPS[2], REGION3_GROUPS[0], REGION3_GROUPS[1]),
            (REGION3_GROUPS[1], REGION3_GROUPS[2], REGION3_GROUPS[0]),
        ):
            matrix = build_constraint_matrix(
                3, partition_permutation(Partition(3, groups))
            )
            assert reconstruct(matrix, X3) == X3

    def test_even_intermediate_sums(self):
        # The halving step never truncates: sums share the parity of n+1.
        rng = random.Random(37)
        for n in (2, 3, 4):
            matrix = build_constraint_matrix(n, identity_permutation(n))
            for _ in range(50):
                cells = [v for _ in range(n) for v in rng.sample(range(1, n + 1), n)]
                rec = reconstruct(matrix, cells)
                assert all(isinstance(v, int) for v in rec)


class TestCheckNecessary:
    def test_valid_square_holds_everywhere(self):
        spec = make_latin_spec(3)
        reports = check_necessary(spec, Assignment(3, X3))
        assert [r.constraint_id for r in reports] == [1, 2, 3]
        assert all(r.holds for r in reports)
        assert all(r.reconstructed == X3 for r in reports)

    def test_all_ones_yields_zero_rows(self):
        spec = make_latin_spec(3)
        reports = check_necessary(spec, Assignment(3, (1,) * 9))
        for report in reports:
            assert not report.holds
            assert report.zero_rows
            assert report.reconstructed is None

    def test_n2_latin_square(self):
        spec = make_latin_spec(2)
        reports = check_necessary(spec, Assignment(2, (1, 2, 2, 1)))
        assert all(r.holds for r in reports)

    def test_out_of_range_mismatch_reported(self):
        spec = ProblemSpec(2, (identity_permutation(2),))
        reports = check_necessary(spec, Assignment(2, (5, 9, 1, 2)))
        (report,) = reports
        assert not report.holds
        assert report.first_violation == (1, 1, 5)
        assert report.zero_rows == ()


class TestCheckGivens:
    def test_consistent_givens(self):
        spec = make_latin_spec(3, givens=((1, 2), (5, 2)))
        assert check_givens(spec, Assignment(3, X3)).ok

    def test_no_givens_vacuous(self):
        spec = make_latin_spec(3)
        assert check_givens(spec, Assignment(3, X3)).ok

    def test_altered_given_detected(self):
        spec = make_latin_spec(3, givens=((1, 3),))
        report = check_givens(spec, Assignment(3, X3))
        assert not report.ok
        assert report.mismatch == (1, 1, 3, 2)

    def test_propagates_not_applicable(self):
        spec = make_latin_spec(2, givens=((1, 1),))
        with pytest.raises(NotApplicableError):
            check_givens(spec, Assignment(2, (1, 1, 2, 2)))

    def test_constraints_are_read_in_order(self):
        # Rows reconstruct to themselves but miss the given; column 1 holds
        # a duplicate.  The first constraint decides, whichever it is.
        grid = Assignment(3, (1, 2, 3, 1, 2, 3, 2, 3, 1))
        givens = ((1, 2),)
        assert check_givens(make_latin_spec(3, givens), grid).mismatch == (1, 1, 2, 1)
        columns_first = ProblemSpec(
            3, (transpose_permutation(3), identity_permutation(3)), givens
        )
        with pytest.raises(NotApplicableError):
            check_givens(columns_first, grid)


class TestParityGuard:
    def test_parity_error_carries_position(self):
        err = ParityError(4, 7)
        assert err.index == 4 and err.value == 7

    def test_reconstruct_raises_on_an_odd_sum(self):
        # Cell 3 lies in no row, so its doubled value is n + 1 = 3, which is odd.
        with pytest.raises(ParityError, match="^odd component 3 at index 3$") as info:
            reconstruct(ConstraintMatrix(2, 3, ((1, 2),)), (1, 2, 3))
        assert (info.value.index, info.value.value) == (3, 3)


@pytest.mark.parametrize(
    "call, args",
    [
        (pairwise_sign_sum, (["a", "b"], 1)),
        (pairwise_sign_sum, ((1, 2), "1")),
        (sign_sum_closed_form, ("a", 3)),
        (sign_sum_closed_form, (2, None)),
        (reconstruct, (None, (1, 2))),
        (reconstruct, (build_difference_matrix(2), (1, 2.5))),
        (rank_of_difference_matrix, (None,)),
        (render_tableau, (None,)),
    ],
)
def test_free_functions_reject_wrong_types(call, args):
    with pytest.raises(InputTypeError):
        call(*args)
