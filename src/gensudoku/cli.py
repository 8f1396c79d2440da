"""Command-line interface.

Subcommands: solve, verify, check, oracle, matrix.  Exit codes: 0 on
success (solutions found / all checks hold), 1 when a violation or empty
solution set is found, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .condition import NecessityReport, check_necessary
from .errors import GenSudokuError, PuzzleFormatError
from .matrices import build_constraint_matrix, build_difference_matrix
from .permutations import (
    block_permutation,
    identity_permutation,
    partition_permutation,
    transpose_permutation,
)
from .problems import SolveOutcome, brute_force, solve, verify_solution
from .puzzle_io import load_problem, load_puzzle, load_regions, render_tableau


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gensudoku",
        description="Generalized Sudoku engine: solve, verify and check puzzles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary, run in (
        ("solve", "solve a puzzle file", _cmd_solve),
        ("verify", "verify a solution file", _cmd_verify),
        ("check", "reconstruction-identity report", _cmd_check),
        ("oracle", "brute-force enumeration", _cmd_oracle),
    ):
        p_cmd = sub.add_parser(name, help=summary)
        p_cmd.add_argument("file")
        if name in ("verify", "check"):
            p_cmd.add_argument("solution")
        if name == "solve":
            p_cmd.add_argument("--cap", type=int, default=None, metavar="K")
        p_cmd.add_argument("--format", choices=["text", "json"], default="text")
        p_cmd.set_defaults(run=run)

    p_matrix = sub.add_parser("matrix", help="dump a constraint matrix densely")
    p_matrix.add_argument("n", type=int)
    p_matrix.add_argument("--pi", type=int, choices=[1, 2, 3], default=None)
    p_matrix.add_argument("--regions", default=None, metavar="PATH")
    p_matrix.set_defaults(run=_cmd_matrix)
    return parser


def _print_outcome(outcome: SolveOutcome, fmt: str) -> int:
    for line in outcome.diagnostics:
        print(line, file=sys.stderr)
    if fmt == "json":
        print(json.dumps(outcome, default=vars))
    else:
        for k, sol in enumerate(outcome.solutions, start=1):
            print(f"solution {k}")
            print(render_tableau(sol))
            print()
        print(
            f"solutions {len(outcome.solutions)} "
            f"nodes {outcome.nodes_explored} "
            f"exhausted {'true' if outcome.exhausted else 'false'}"
        )
    return 0 if outcome.solutions else 1


def _report_line(report: NecessityReport) -> str:
    # A loaded solution holds 1..n, so a group with no zero difference holds.
    if report.holds:
        return f"constraint {report.constraint_id}: HOLDS"
    return (
        f"constraint {report.constraint_id}: NOT-APPLICABLE "
        f"(zero difference at row {report.zero_rows[0]})"
    )


def _cmd_solve(args) -> int:
    problem = load_problem(args.file)
    outcome = solve(problem, cap=args.cap)
    return _print_outcome(outcome, args.format)


def _cmd_oracle(args) -> int:
    problem = load_problem(args.file)
    outcome = brute_force(problem)
    return _print_outcome(outcome, args.format)


def _load_solution(args):
    """The puzzle's problem and the solution file's grid, of the same size."""
    problem = load_problem(args.file)
    doc = load_puzzle(args.solution)
    if doc.n != problem.n:
        sizes = f"solution grid is {doc.n}x{doc.n}, puzzle is {problem.n}x{problem.n}"
        raise PuzzleFormatError(sizes, 1, source_name=doc.source_name)
    return problem, doc.assignment()


def _cmd_verify(args) -> int:
    problem, solution = _load_solution(args)
    result = verify_solution(problem, solution)
    if args.format == "json":
        print(json.dumps(result, default=vars))
    elif result.ok:
        print("OK")
    else:
        print(f"VIOLATION ({result.clause}): {result.detail}")
    return 0 if result.ok else 1


def _cmd_check(args) -> int:
    problem, solution = _load_solution(args)
    reports = check_necessary(problem, solution)
    if args.format == "json":
        print(json.dumps(reports, default=vars))
    else:
        for report in reports:
            print(_report_line(report))
    return 0 if all(r.holds for r in reports) else 1


def _cmd_matrix(args) -> int:
    n = args.n
    if args.regions is not None and args.pi != 3:
        raise GenSudokuError("--regions applies only with --pi 3")
    if args.pi is None:
        header, matrix = f"A({n})", build_difference_matrix(n)
    else:
        if args.regions is not None:
            part = load_regions(args.regions)
            if part.n != n:
                raise GenSudokuError(
                    f"region grid is {part.n}x{part.n}, requested n is {n}"
                )
            perm = partition_permutation(part)
        else:
            canonical = (identity_permutation, transpose_permutation, block_permutation)
            perm = canonical[args.pi - 1](n)
        header, matrix = f"A_pi {n}", build_constraint_matrix(n, perm)
    print(header)
    for row in matrix.to_dense():
        print(" ".join(str(v) for v in row))
    return 0


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.run(args)
    except (GenSudokuError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
