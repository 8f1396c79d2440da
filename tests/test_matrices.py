import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gensudoku import (
    ConstraintMatrix,
    DimensionError,
    InputTypeError,
    Partition,
    SpecError,
    build_constraint_matrix,
    build_difference_matrix,
    identity_permutation,
    make_classic_spec,
    make_gerechte_spec,
    make_latin_spec,
    rank_of_difference_matrix,
    triangular_sum,
)
from reference_data import A9_DENSE, X9, X9_COLUMN_SUMS, X9_SIGNS, reference_rank


def sign(v):
    return (v > 0) - (v < 0)


class TestTriangularSum:
    def test_values(self):
        assert triangular_sum(1) == 0
        assert triangular_sum(3) == 3
        assert triangular_sum(9) == 36

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            triangular_sum(0)


class TestBuildDifferenceMatrix:
    def test_n2(self):
        assert build_difference_matrix(2).rows == ((1, 2),)

    def test_n3(self):
        assert build_difference_matrix(3).rows == ((1, 2), (1, 3), (2, 3))

    def test_n9_dense_boundary_rows(self):
        dense = build_difference_matrix(9).to_dense()
        assert len(dense) == 36
        assert dense[0] == [1, -1, 0, 0, 0, 0, 0, 0, 0]
        assert dense[-1] == [0, 0, 0, 0, 0, 0, 0, 1, -1]

    def test_n9_matches_reference(self):
        dense = build_difference_matrix(9).to_dense()
        assert [tuple(r) for r in dense] == list(A9_DENSE)

    def test_inductive_structure(self):
        # First n-1 rows pair 1 with 2..n, rest is the n-1 case shifted by 1.
        for n in range(2, 8):
            matrix = build_difference_matrix(n)
            head = matrix.rows[: n - 1]
            assert head == tuple((1, m) for m in range(2, n + 1))
            shifted = tuple(
                (p + 1, m + 1) for p, m in build_difference_matrix(n - 1).rows
            )
            assert matrix.rows[n - 1 :] == shifted

    def test_rows_biject_onto_pairs(self):
        for n in range(1, 13):
            matrix = build_difference_matrix(n)
            assert len(matrix.rows) == triangular_sum(n)
            assert sorted(matrix.rows) == list(combinations(range(1, n + 1), 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_difference_matrix(0)


class TestDenseExport:
    def test_n2(self):
        assert build_difference_matrix(2).to_dense() == [[1, -1]]

    def test_n1_empty(self):
        assert build_difference_matrix(1).to_dense() == []


class TestApply:
    def test_ones_in_kernel(self):
        for n in range(1, 13):
            matrix = build_difference_matrix(n)
            assert matrix.apply([1] * n) == (0,) * triangular_sum(n)

    def test_constant_vector_in_kernel_of_constraint_matrix(self):
        matrix = build_constraint_matrix(3, identity_permutation(3))
        assert matrix.apply([7] * 9) == (0,) * 9

    def test_reference_signs(self):
        diffs = build_difference_matrix(9).apply(X9)
        assert tuple(sign(v) for v in diffs) == X9_SIGNS

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            build_difference_matrix(3).apply([1, 2])

    @pytest.mark.parametrize("x", [None, ("a", "b"), (True, 2), (1.0, 2)])
    def test_rejects_a_vector_that_is_not_ints(self, x):
        with pytest.raises(InputTypeError):
            build_difference_matrix(2).apply(x)

    def test_distinctness_boundary(self):
        rng = random.Random(7)
        for n in range(2, 9):
            matrix = build_difference_matrix(n)
            for _ in range(50):
                x = [rng.randint(-50, 50) for _ in range(n)]
                has_zero = any(v == 0 for v in matrix.apply(x))
                assert has_zero == (len(set(x)) < n)


class TestApplyTranspose:
    def test_reference_column_sums(self):
        matrix = build_difference_matrix(9)
        assert matrix.apply_transpose(X9_SIGNS) == X9_COLUMN_SUMS

    def test_empty(self):
        assert build_difference_matrix(1).apply_transpose([]) == (0,)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            build_difference_matrix(3).apply_transpose([1, 1])

    @pytest.mark.parametrize("y", [None, ("a",), (False,), 3])
    def test_rejects_a_vector_that_is_not_ints(self, y):
        with pytest.raises(InputTypeError):
            build_difference_matrix(2).apply_transpose(y)


class TestConstraintMatrix:
    def test_identity_block_structure(self):
        matrix = build_constraint_matrix(3, identity_permutation(3))
        dense = matrix.to_dense()
        assert len(dense) == 9 and len(dense[0]) == 9
        for r, row in enumerate(dense):
            block = r // 3
            touched = {c + 1 for c, v in enumerate(row) if v != 0}
            assert touched <= set(range(block * 3 + 1, block * 3 + 4))

    def test_n2_identity_rows(self):
        matrix = build_constraint_matrix(2, identity_permutation(2))
        assert matrix.to_dense() == [[1, -1, 0, 0], [0, 0, 1, -1]]

    def test_rejects_wrong_perm_size(self):
        from gensudoku import InvalidPermutationError

        with pytest.raises(InvalidPermutationError):
            build_constraint_matrix(3, identity_permutation(2))

    def test_sparse_dense_agreement(self):
        rng = random.Random(11)
        for n in range(2, 10):
            perm = identity_permutation(n)
            matrix = build_constraint_matrix(n, perm)
            dense = matrix.to_dense()
            for _ in range(100):
                x = [rng.randint(-9, 9) for _ in range(n * n)]
                expect = tuple(
                    sum(row[j] * x[j] for j in range(n * n)) for row in dense
                )
                assert matrix.apply(x) == expect
            lam = [rng.choice([-1, 1]) for _ in range(matrix.row_count)]
            expect_t = tuple(
                sum(dense[r][j] * lam[r] for r in range(matrix.row_count))
                for j in range(n * n)
            )
            assert matrix.apply_transpose(lam) == expect_t


class TestConstraintMatrixRows:
    def test_rows_are_kept_as_tuples(self):
        matrix = ConstraintMatrix(2, 2, [[1, 2]])
        assert matrix.rows == ((1, 2),)
        assert ConstraintMatrix(3, 0, ()).rows == ()

    @pytest.mark.parametrize(
        "rows",
        [
            ((0, 1),),  # column 0 would wrap round to the last column
            ((1, 1),),  # coincident columns
            ((1, 3),),  # past the last column
            ((1,),),  # not a pair
            ((1, 2, 1),),
            ((1, 2), ()),
        ],
    )
    def test_bad_rows_raise_spec_error(self, rows):
        with pytest.raises(SpecError):
            ConstraintMatrix(2, 2, rows)

    @pytest.mark.parametrize(
        "n, column_count, rows",
        [
            (2, 2, ((1, True),)),
            (2, 2, ((1, 2.0),)),
            (2, 2, (("1", 2),)),
            (2, 2, ((1, 2), 5)),
            (2, 2, None),
            ("2", 2, ((1, 2),)),
            (2, True, ((1, 2),)),
        ],
    )
    def test_bad_types_raise_input_type_error(self, n, column_count, rows):
        with pytest.raises(InputTypeError):
            ConstraintMatrix(n, column_count, rows)


def diagonal_gerechte_9x9():
    """Regions are the broken diagonals: region r holds (i, (i + r) mod 9)."""
    regions = [sorted(9 * i + (i + r) % 9 + 1 for i in range(9)) for r in range(9)]
    return make_gerechte_spec(Partition(9, regions))


class TestRank:
    def test_small_cases(self):
        assert rank_of_difference_matrix(build_difference_matrix(1)) == 0
        assert rank_of_difference_matrix(build_difference_matrix(2)) == 1
        assert rank_of_difference_matrix(build_difference_matrix(9)) == 8

    def test_rank_is_n_minus_one(self):
        for n in range(1, 13):
            matrix = build_difference_matrix(n)
            assert rank_of_difference_matrix(matrix) == n - 1
            assert reference_rank(matrix.to_dense()) == n - 1

    @pytest.mark.parametrize(
        "spec",
        [
            make_classic_spec(4),
            make_classic_spec(9),
            make_classic_spec(16),
            make_latin_spec(5),
            diagonal_gerechte_9x9(),
        ],
        ids=["classic-4", "classic-9", "classic-16", "latin-5", "gerechte-9"],
    )
    def test_every_constraint_matrix_has_rank_n_squared_minus_n(self, spec):
        n = spec.n
        for perm in spec.constraints:
            matrix = build_constraint_matrix(n, perm)
            assert rank_of_difference_matrix(matrix) == n * n - n
            if n <= 5:
                assert reference_rank(matrix.to_dense()) == n * n - n

    def test_rejects_a_non_matrix(self):
        with pytest.raises(InputTypeError):
            rank_of_difference_matrix(None)


@st.composite
def valid_matrices(draw):
    """Any rows joining two distinct columns of up to 9, repeats allowed."""
    columns = draw(st.integers(0, 9))
    if columns < 2:
        return ConstraintMatrix(1, columns, ())
    pair = st.lists(st.integers(1, columns), min_size=2, max_size=2, unique=True)
    rows = draw(st.lists(pair.map(tuple), max_size=16))
    return ConstraintMatrix(columns, columns, rows)


@settings(max_examples=300, deadline=None)
@given(valid_matrices())
def test_rank_equals_the_elimination_on_random_matrices(matrix):
    assert rank_of_difference_matrix(matrix) == reference_rank(matrix.to_dense())
