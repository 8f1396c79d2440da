"""Generalized Sudoku constraint engine.

Models row/column/region puzzles as an integer system over permuted
pairwise-difference matrices, provides the sign-based reconstruction check
that every solution must satisfy, and ships a backtracking solver plus a
brute-force oracle and a CLI.
"""

from .condition import (
    Assignment,
    GivensReport,
    NecessityReport,
    ProblemSpec,
    check_givens,
    check_necessary,
    gsgn,
    pairwise_sign_sum,
    reconstruct,
    sign_sum_closed_form,
)
from .errors import (
    DimensionError,
    GenSudokuError,
    InputTypeError,
    InvalidCapError,
    InvalidPartitionError,
    InvalidPermutationError,
    NotApplicableError,
    ParityError,
    PuzzleFormatError,
    SearchSpaceError,
    SelfCheckError,
    SpecError,
)
from .matrices import (
    ConstraintMatrix,
    build_constraint_matrix,
    build_difference_matrix,
    rank_of_difference_matrix,
    triangular_sum,
)
from .permutations import (
    Partition,
    Permutation,
    block_permutation,
    identity_permutation,
    partition_permutation,
    transpose_permutation,
)
from .problems import (
    SolveOutcome,
    VerificationResult,
    brute_force,
    make_classic_spec,
    make_gerechte_spec,
    make_latin_spec,
    solve,
    verify_solution,
)
from .puzzle_io import (
    PuzzleDocument,
    build_problem,
    load_problem,
    load_puzzle,
    parse_dot_string,
    parse_puzzle,
    parse_regions,
    render_tableau,
)

__all__ = [name for name in dir() if not name.startswith("_")]
