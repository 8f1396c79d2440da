"""Command-line interface.

Subcommands: solve, verify, check, oracle, matrix.  Exit codes: 0 on
success (solutions found / all checks hold), 1 when a violation or empty
solution set is found, 2 on input errors, a failed self-check
(``SelfCheckError``) or running out of memory.  Each command returns its
result, whether it holds and its stderr notes; ``run_cli`` alone prints.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .condition import check_necessary
from .errors import GenSudokuError, PuzzleFormatError, SearchSpaceError, SpecError
from .matrices import build_constraint_matrix, build_difference_matrix
from .permutations import (
    block_permutation,
    identity_permutation,
    partition_permutation,
    transpose_permutation,
)
from .problems import brute_force, solve, verify_solution
from .puzzle_io import load_problem, load_puzzle, load_regions, render_tableau

OUTPUT_LIMIT = 10**7  # entries a CLI result may print: solutions or a matrix dump


def _outcome_text(outcome) -> str:
    numbered = enumerate(outcome.solutions, start=1)
    blocks = [f"solution {k}\n{render_tableau(sol)}\n" for k, sol in numbered]
    exhausted = "true" if outcome.exhausted else "false"
    summary = f"solutions {len(outcome.solutions)} nodes {outcome.nodes_explored}"
    return "\n".join([*blocks, f"{summary} exhausted {exhausted}"])


def _verdict(result) -> str:
    return "OK" if result.ok else f"VIOLATION ({result.clause}): {result.detail}"


def _check_text(reports) -> str:
    # A loaded solution holds 1..n, so a group with no zero difference holds.
    zero = "NOT-APPLICABLE (zero difference at row {})"
    return "\n".join(
        f"constraint {r.constraint_id}: {'HOLDS' if r.holds else zero.format(r.zero_rows[0])}"
        for r in reports
    )


def _cmd_search(args):
    """solve's and oracle's result; it holds when a solution was found."""
    problem = load_problem(args.file)
    bound = OUTPUT_LIMIT // problem.n**2  # solutions a result may print
    try:
        if args.command == "oracle":
            outcome = brute_force(problem)
        else:  # no cap, or one above the bound, searches one past the bound
            cap = args.cap if args.cap is not None and args.cap <= bound else bound + 1
            outcome = solve(problem, cap=cap)
        if len(outcome.solutions) > bound:
            many = f"more than {bound} solutions of {problem.n**2} cells"
            raise SearchSpaceError(f"{many} exceed the {OUTPUT_LIMIT} bound; use --cap K")
    except SearchSpaceError as exc:  # named as the puzzle's format errors name it
        raise SearchSpaceError(f"{Path(args.file)}: {exc}") from exc
    return outcome, bool(outcome.solutions), outcome.diagnostics


def _cmd_solution(args):
    """verify's and check's result; the certificate decides whether it holds."""
    problem = load_problem(args.file)
    doc = load_puzzle(args.solution)
    if doc.n != problem.n:
        sizes = f"solution grid is {doc.n}x{doc.n}, puzzle is {problem.n}x{problem.n}"
        raise PuzzleFormatError(sizes, 1, source_name=doc.source_name)
    solution = doc.assignment()
    result = verify_solution(problem, solution)
    if args.command == "verify":
        return result, result.ok, []
    # On 1..n the certificate implies every report holds, and it checks the givens.
    notes = [_verdict(result)] if result.clause == "given" else []
    return check_necessary(problem, solution), result.ok, notes


def _cmd_matrix(args):
    n = args.n
    if args.regions is not None and args.pi != 3:
        raise GenSudokuError("--regions applies only with --pi 3")
    # A(n) is n(n-1)/2 x n; A_pi is n blocks of it, n^2(n-1)/2 x n^2.
    cols = n if args.pi is None else n * n
    rows = cols * (n - 1) // 2
    if rows * cols > OUTPUT_LIMIT:
        dump = f"{rows}x{cols} matrix dump of {rows * cols} entries"
        raise SpecError(f"{dump} exceeds the {OUTPUT_LIMIT} bound")
    if args.regions is not None:
        part = load_regions(args.regions)
        if part.n != n:  # named as load_regions names the file's own faults
            sizes = f"region grid is {part.n}x{part.n}, requested n is {n}"
            raise PuzzleFormatError(sizes, source_name=str(Path(args.regions)))
        perm = partition_permutation(part)
    elif args.pi is not None:
        canonical = (identity_permutation, transpose_permutation, block_permutation)
        perm = canonical[args.pi - 1](n)
    if args.pi is None:
        header, matrix = f"A({n})", build_difference_matrix(n)
    else:
        header, matrix = f"A_pi {n}", build_constraint_matrix(n, perm)
    rows = (" ".join(map(str, row)) for row in matrix.to_dense())
    return "\n".join((header, *rows)), True, []


# Built once, at import: every run_cli call parses with this one parser.
PARSER = argparse.ArgumentParser(
    prog="gensudoku",
    description="Generalized Sudoku engine: solve, verify and check puzzles.",
)
sub = PARSER.add_subparsers(dest="command", required=True)

for name, summary, run, render in (
    ("solve", "solve a puzzle file", _cmd_search, _outcome_text),
    ("verify", "verify a solution file", _cmd_solution, _verdict),
    ("check", "reconstruction-identity report", _cmd_solution, _check_text),
    ("oracle", "brute-force enumeration", _cmd_search, _outcome_text),
):
    p_cmd = sub.add_parser(name, help=summary)
    p_cmd.add_argument("file")
    if name in ("verify", "check"):
        p_cmd.add_argument("solution")
    if name == "solve":
        p_cmd.add_argument("--cap", type=int, default=None, metavar="K")
    p_cmd.add_argument("--format", choices=["text", "json"], default="text")
    p_cmd.set_defaults(run=run, text=render)

p_matrix = sub.add_parser("matrix", help="dump a constraint matrix densely")
p_matrix.add_argument("n", type=int)
p_matrix.add_argument("--pi", type=int, choices=[1, 2, 3], default=None)
p_matrix.add_argument("--regions", default=None, metavar="PATH")
p_matrix.set_defaults(run=_cmd_matrix, text=str, format="text")


def run_cli(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        result, holds, notes = args.run(args)
        for note in notes:
            print(note, file=sys.stderr)
        text = args.format == "text"
        print(args.text(result) if text else json.dumps(result, default=vars))
    except (GenSudokuError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its str() is empty
        print("error: out of memory", file=sys.stderr)
        return 2
    return 0 if holds else 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
