"""Permutations on cell indices and region partitions of the tableau.

All indices are 1-based.  A permutation relocates tableau positions: the
value sitting at position j moves to position pi(j), i.e. applying pi to a
vector x yields the vector whose i-th component is x[pi^{-1}(i)].
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import product

from .errors import (
    DimensionError,
    InvalidPartitionError,
    InvalidPermutationError,
    Record,
    as_ints,
    as_tuple,
    as_tuples,
    require_instance,
    require_int,
)


class Permutation(Record):
    """Bijection on {1, ..., size}; ``images[i-1]`` is the image of i."""

    __match_args__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = as_tuple("images", images)
        ints = {int}.issuperset(map(type, images))  # sorted() fails on str
        if not ints or sorted(images) != list(range(1, len(images) + 1)):
            message = f"images {images!r} are not a bijection on 1..{len(images)}"
            raise InvalidPermutationError(message)
        self._set(images)

    @property
    def size(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def apply_to_vector(self, x: Sequence[int]) -> tuple[int, ...]:
        """Relocate components: result[pi(j)] = x[j] for every position j.

        An x that is not a sequence of ints raises InputTypeError, one of
        the wrong length DimensionError.
        """
        x = as_ints("x", x)
        if len(x) != self.size:
            raise DimensionError(
                f"vector length {len(x)} does not match permutation size {self.size}"
            )
        out = [0] * self.size
        for j, img in enumerate(self.images):
            out[img - 1] = x[j]
        return tuple(out)


class Partition(Record):
    """n groups of n cells each, jointly covering {1, ..., n^2}.

    Group order is the caller's order (it fixes the layout of the induced
    constraint matrix); cells within each group are kept strictly ascending.
    """

    __match_args__ = ("n", "groups")

    def __init__(self, n: int, groups: tuple[tuple[int, ...], ...]):
        groups = as_tuples("groups", groups)
        require_int("n", n)
        if len(groups) != n:
            raise InvalidPartitionError(f"expected {n} groups, got {len(groups)}")
        seen = [False] * (n * n + 1)
        for group in groups:
            if len(group) != n:
                message = f"group {group!r} has {len(group)} cells, expected {n}"
                raise InvalidPartitionError(message)
            for prev, cell in zip((None,) + group, group):
                if type(cell) is not int or not 1 <= cell <= n * n:
                    raise InvalidPartitionError(f"cell {cell!r} outside 1..{n * n}", cell=cell)
                if seen[cell]:
                    raise InvalidPartitionError(f"cell {cell} appears in two groups", cell=cell)
                if prev is not None and prev >= cell:
                    message = f"cells within a group must ascend, got {prev} before {cell}"
                    raise InvalidPartitionError(message, cell=cell)
                seen[cell] = True
        self._set(n, groups)


def identity_permutation(n: int) -> Permutation:
    """The identity on the n^2 cell indices."""
    require_int("n", n)
    if n < 1:
        raise InvalidPermutationError(f"n must be >= 1, got {n}")
    return Permutation(tuple(range(1, n * n + 1)))


def transpose_permutation(n: int) -> Permutation:
    """Maps tableau rows onto tableau columns: (r-1)n+c -> (c-1)n+r."""
    require_int("n", n)
    if n < 1:
        raise InvalidPermutationError(f"n must be >= 1, got {n}")
    return Permutation(tuple(c * n + r for r in range(1, n + 1) for c in range(n)))


def block_permutation(n: int) -> Permutation:
    """Maps the i-th tableau row onto the i-th sqrt(n) x sqrt(n) subsquare.

    Subsquares are numbered row-wise from the left; within a subsquare cells
    fill left-to-right, top-to-bottom.
    """
    require_int("n", n)
    if n < 4 or math.isqrt(n) ** 2 != n:
        raise InvalidPermutationError(f"n must be a perfect square >= 4, got {n}")
    m = math.isqrt(n)
    # Tableau row a*m + b is subsquare (a, b); its entry i*m + j is cell (i, j).
    quads = product(range(m), repeat=4)
    return Permutation(tuple((a * m + i) * n + b * m + j + 1 for a, b, i, j in quads))


def partition_permutation(part: Partition) -> Permutation:
    """Maps the i-th tableau row onto the cells of the i-th group, in order.

    Feeding the result to ``build_constraint_matrix`` makes constraint block i
    tie together exactly group i's cells.
    """
    require_instance("part", part, Partition)
    images = [cell for group in part.groups for cell in group]
    return Permutation(tuple(images))
