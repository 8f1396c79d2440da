import math
import random
import re

import pytest

from gensudoku import (
    DimensionError,
    InputTypeError,
    InvalidPartitionError,
    InvalidPermutationError,
    Partition,
    Permutation,
    block_permutation,
    build_constraint_matrix,
    identity_permutation,
    partition_permutation,
    transpose_permutation,
)
from reference_data import REGION3_DENSE, REGION3_GROUPS, REGION3_PERM_IMAGES


def random_permutation(rng, size):
    images = list(range(1, size + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


class TestPermutation:
    def test_identity(self):
        assert identity_permutation(2).images == (1, 2, 3, 4)
        assert identity_permutation(3).images == tuple(range(1, 10))

    def test_identity_apply_is_noop(self):
        rng = random.Random(3)
        p = identity_permutation(3)
        x = tuple(rng.randint(0, 9) for _ in range(9))
        assert p.apply_to_vector(x) == x

    def test_apply_relocates(self):
        p = Permutation((2, 3, 1))
        assert p.apply_to_vector((10, 20, 30)) == (30, 10, 20)

    @pytest.mark.parametrize("x", [3, None, ("a", 2, 3), (True, 2, 3)])
    def test_apply_rejects_a_vector_that_is_not_ints(self, x):
        with pytest.raises(InputTypeError):
            Permutation((2, 3, 1)).apply_to_vector(x)

    def test_apply_rejects_a_vector_of_the_wrong_length(self):
        with pytest.raises(DimensionError):
            Permutation((2, 3, 1)).apply_to_vector((1, 2))

    def test_inverse_images(self):
        assert Permutation((2, 3, 1)).inverse().images == (3, 1, 2)
        ident = identity_permutation(2)
        assert ident.inverse().images == ident.images

    def test_inverse_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            size = rng.randint(1, 20)
            p = random_permutation(rng, size)
            x = tuple(rng.randint(-9, 9) for _ in range(size))
            assert p.inverse().apply_to_vector(p.apply_to_vector(x)) == x
            assert p.apply_to_vector(p.inverse().apply_to_vector(x)) == x

    def test_rejects_non_bijection(self):
        # (1, "a") is rejected for its type before any sort could compare a str.
        cases = [(1, 1, 3), (0, 1, 2), (True, 2), (1.0, 2), (1, "a"), (1, 3), (2, 2)]
        for images in cases:
            message = f"images {images!r} are not a bijection on 1..{len(images)}"
            with pytest.raises(InvalidPermutationError, match=f"^{re.escape(message)}$"):
                Permutation(images)

    def test_identity_of_order_zero_rejected(self):
        with pytest.raises(InvalidPermutationError, match="^n must be >= 1, got 0$"):
            identity_permutation(0)
        with pytest.raises(InvalidPermutationError, match="^n must be >= 1, got 0$"):
            transpose_permutation(0)


class TestTransposePermutation:
    def test_listed_values(self):
        p = transpose_permutation(9)
        assert p.images[2 - 1] == 10
        assert p.images[3 - 1] == 19
        assert p.images[10 - 1] == 2

    def test_n2_images(self):
        assert transpose_permutation(2).images == (1, 3, 2, 4)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sends_row_and_column_to_column_and_row(self, n):
        images = transpose_permutation(n).images
        for r in range(n):
            for c in range(n):
                assert images[r * n + c] == c * n + r + 1

    def test_involution(self):
        for n in range(2, 10):
            p = transpose_permutation(n)
            assert p.apply_to_vector(p.images) == tuple(range(1, n * n + 1))


class TestBlockPermutation:
    def test_listed_values(self):
        p = block_permutation(9)
        assert p.images[3 - 1] == 3
        assert p.images[4 - 1] == 10
        assert p.images[9 - 1] == 21

    def test_n4_images(self):
        assert block_permutation(4).images == (
            1, 2, 5, 6, 3, 4, 7, 8, 9, 10, 13, 14, 11, 12, 15, 16,
        )

    @pytest.mark.parametrize("n", [4, 9, 16, 25, 36, 49])
    def test_tableau_row_i_is_subsquare_i_in_reading_order(self, n):
        m = math.isqrt(n)
        images = block_permutation(n).images
        for i in range(n):
            top, left = i // m * m, i % m * m
            cells = [(top + k // m) * n + left + k % m + 1 for k in range(n)]
            assert list(images[i * n : (i + 1) * n]) == cells

    def test_first_row_maps_to_top_left_block(self):
        p = block_permutation(9)
        assert {p.images[i - 1] for i in range(1, 10)} == {1, 2, 3, 10, 11, 12, 19, 20, 21}

    def test_rejects_non_square(self):
        # Orders below 4 are rejected before math.isqrt, which would raise an
        # untyped ValueError on a negative one.
        for n in (3, -4, -1, 0, 1):
            with pytest.raises(InvalidPermutationError, match=f"got {n}$"):
                block_permutation(n)


class TestPartition:
    def test_row_groups_give_identity(self):
        part = Partition(3, ((1, 2, 3), (4, 5, 6), (7, 8, 9)))
        assert partition_permutation(part).images == identity_permutation(3).images

    def test_region_example(self):
        part = Partition(3, REGION3_GROUPS)
        perm = partition_permutation(part)
        assert perm.images == REGION3_PERM_IMAGES
        dense = build_constraint_matrix(3, perm).to_dense()
        assert [tuple(r) for r in dense] == list(REGION3_DENSE)

    def test_subsquare_partition_matches_block_permutation(self):
        groups = ((1, 2, 5, 6), (3, 4, 7, 8), (9, 10, 13, 14), (11, 12, 15, 16))
        part = Partition(4, groups)
        assert partition_permutation(part).images == block_permutation(4).images

    def test_duplicate_cell_reported(self):
        with pytest.raises(InvalidPartitionError) as info:
            Partition(2, ((1, 2), (2, 3)))
        assert info.value.cell == 2

    def test_missing_cell_reported(self):
        with pytest.raises(InvalidPartitionError):
            Partition(2, ((1, 2), (3, 3)))

    def test_group_of_the_wrong_size_reported(self):
        with pytest.raises(
            InvalidPartitionError, match=r"^group \(1, 2, 3\) has 3 cells, expected 2$"
        ):
            Partition(2, ((1, 2, 3), (4,)))

    def test_cell_out_of_range_reported(self):
        with pytest.raises(InvalidPartitionError, match="^cell 0 outside 1..4$") as info:
            Partition(2, ((0, 1), (2, 3)))
        assert info.value.cell == 0

    def test_descending_group_reported(self):
        with pytest.raises(InvalidPartitionError, match="got 2 before 1$") as info:
            Partition(2, ((2, 1), (3, 4)))
        assert info.value.cell == 1

    def test_group_rows_reference_cells_of_same_group(self):
        part = Partition(3, REGION3_GROUPS)
        matrix = build_constraint_matrix(3, partition_permutation(part))
        groups = [set(g) for g in part.groups]
        for row_index, (plus, minus) in enumerate(matrix.rows):
            group = groups[row_index // 3]
            assert plus in group and minus in group


class TestColumnRelabelingIdentities:
    # A_pi x equals A applied to the inverse-relocated vector, and
    # A_pi^T lam equals the relocation of A^T lam.
    def test_apply_identity(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            base = build_constraint_matrix(n, identity_permutation(n))
            for _ in range(50):
                perm = random_permutation(rng, n * n)
                permuted = build_constraint_matrix(n, perm)
                x = tuple(rng.randint(-9, 9) for _ in range(n * n))
                assert permuted.apply(x) == base.apply(
                    perm.inverse().apply_to_vector(x)
                )

    def test_transpose_identity(self):
        rng = random.Random(19)
        for n in (2, 3, 4):
            base = build_constraint_matrix(n, identity_permutation(n))
            for _ in range(50):
                perm = random_permutation(rng, n * n)
                permuted = build_constraint_matrix(n, perm)
                lam = tuple(rng.choice([-1, 1]) for _ in range(base.row_count))
                assert permuted.apply_transpose(lam) == perm.apply_to_vector(
                    base.apply_transpose(lam)
                )
