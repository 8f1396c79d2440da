import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gensudoku.cli
import gensudoku.problems
from gensudoku import (
    Assignment,
    Partition,
    brute_force,
    build_constraint_matrix,
    check_necessary,
    load_problem,
    load_puzzle,
    make_classic_spec,
    make_gerechte_spec,
    make_latin_spec,
    solve,
    verify_solution,
)
from gensudoku.cli import run_cli

LATIN3_PUZZLE = "n 3\n0 0 0\n0 0 0\n0 0 0\n"
LATIN3_SOLVED = "n 3\n2 1 3\n3 2 1\n1 3 2\n"
LATIN2_PUZZLE = "n 2\n0 0\n0 0\n"
CLASSIC4_PUZZLE = "n 4\n" + "0 0 0 0\n" * 4
CLASSIC4_SOLVED = "n 4\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"
CLASSIC9_PUZZLE = "n 9\n" + "0 0 0 0 0 0 0 0 0\n" * 9
TILING4 = "a a b b\nc a a b\nc d d b\nc c d d\n"
GERECHTE4_PUZZLE = "n 4\nregions tiling4.txt\n4 3 0 0\n3 0 0 4\n0 0 4 3\n0 4 3 0\n"
SOLVED9 = (
    "534678912672195348198342567859761423426853791"
    "713924856961537284287419635345286179"
)


USAGE = "usage: gensudoku [-h] {solve,verify,check,oracle,matrix} ...\n"
OPTIONS = "options:\n  -h, --help            show this help message and exit\n"
FORMAT = "  --format {text,json}\n"
# What argparse prints for the bare program and for each --help, at 80
# columns: (arguments, exit code, stdout, stderr).
HELP_PAGES = [
    ([], 2, "", USAGE + "gensudoku: error: the following arguments are required: command\n"),
    (["--help"], 0, USAGE + """
Generalized Sudoku engine: solve, verify and check puzzles.

positional arguments:
  {solve,verify,check,oracle,matrix}
    solve               solve a puzzle file
    verify              verify a solution file
    check               reconstruction-identity report
    oracle              brute-force enumeration
    matrix              dump a constraint matrix densely

""" + OPTIONS, ""),
    (["solve", "--help"], 0, """\
usage: gensudoku solve [-h] [--cap K] [--format {text,json}] file

positional arguments:
  file

""" + OPTIONS + "  --cap K\n" + FORMAT, ""),
    (["verify", "--help"], 0, """\
usage: gensudoku verify [-h] [--format {text,json}] file solution

positional arguments:
  file
  solution

""" + OPTIONS + FORMAT, ""),
    (["check", "--help"], 0, """\
usage: gensudoku check [-h] [--format {text,json}] file solution

positional arguments:
  file
  solution

""" + OPTIONS + FORMAT, ""),
    (["oracle", "--help"], 0, """\
usage: gensudoku oracle [-h] [--format {text,json}] file

positional arguments:
  file

""" + OPTIONS + FORMAT, ""),
    (["matrix", "--help"], 0, """\
usage: gensudoku matrix [-h] [--pi {1,2,3}] [--regions PATH] n

positional arguments:
  n

options:
  -h, --help      show this help message and exit
  --pi {1,2,3}
  --regions PATH
""", ""),
]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "argv, code, out, err", HELP_PAGES, ids=[" ".join(a) or "bare" for a, *_ in HELP_PAGES]
)
def test_usage_and_help_pages(monkeypatch, capsys, argv, code, out, err):
    # argparse wraps help to the terminal width, so fix it.
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(argv) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("name, code", [("p.txt", 0), ("missing.txt", 2)])
def test_the_module_prints_and_exits_as_run_cli_does(tmp_path, capsys, name, code):
    # `python -m gensudoku.cli` runs main(), which exits with run_cli's code.
    write(tmp_path, "p.txt", CLASSIC4_PUZZLE)
    argv = ["solve", str(tmp_path / name), "--cap", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(gensudoku.cli.__file__).resolve().parent.parent)}
    command = [sys.executable, "-m", "gensudoku.cli", *argv]
    run = subprocess.run(command, env=env, capture_output=True, text=True)
    assert run_cli(argv) == code
    assert (run.stdout, run.stderr, run.returncode) == (*capsys.readouterr(), code)


class TestMatrixCommand:
    def test_difference_matrix_dump(self, capsys):
        # A(9) is criterion 1's; these are the smallest orders, one with no row.
        assert run_cli(["matrix", "1"]) == 0
        assert capsys.readouterr() == ("A(1)\n", "")
        assert run_cli(["matrix", "2"]) == 0
        assert capsys.readouterr() == ("A(2)\n1 -1\n", "")

    def test_pi1_dump_is_block_diagonal(self, capsys):
        assert run_cli(["matrix", "2", "--pi", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "A_pi 2"
        assert lines[1:] == ["1 -1 0 0", "0 0 1 -1"]

    @pytest.mark.parametrize(
        "make, n, pi, regions",
        [(make_classic_spec, n, pi, None) for n in (4, 9) for pi in (1, 2, 3)]
        + [(make_latin_spec, 3, pi, None) for pi in (1, 2)]
        + [
            (make_gerechte_spec, 3, 3, "a a b\na b b\nc c c\n"),
            (make_gerechte_spec, 4, 3, TILING4),
        ],
    )
    def test_pi_dump_is_the_spec_constraint(self, tmp_path, capsys, make, n, pi, regions):
        # A_pi is the matrix of constraint pi of the spec of that kind.
        argv = ["matrix", str(n), "--pi", str(pi)]
        if regions is None:
            spec = make(n)
        else:
            argv += ["--regions", write(tmp_path, "part.txt", regions)]
            labels = regions.split()
            groups = [
                tuple(i for i, label in enumerate(labels, 1) if label == name)
                for name in dict.fromkeys(labels)
            ]
            spec = make(Partition(n, groups))
        expected = build_constraint_matrix(n, spec.constraints[pi - 1]).to_dense()
        assert run_cli(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"A_pi {n}"
        assert lines[1:] == [" ".join(map(str, row)) for row in expected]

    def test_regions_need_pi3(self, tmp_path, capsys):
        regions = write(tmp_path, "part.txt", "a a b\na b b\nc c c\n")
        for argv in (
            ["matrix", "3", "--pi", "1", "--regions", str(tmp_path / "missing")],
            ["matrix", "3", "--regions", regions],
        ):
            assert run_cli(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--pi 3" in captured.err

    def test_region_grid_of_another_order(self, tmp_path, capsys, monkeypatch):
        write(tmp_path, "part.txt", "a a b b\na a b b\nc c d d\nc c d d\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["matrix", "9", "--pi", "3", "--regions", "./part.txt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: part.txt: region grid is 4x4, requested n is 9\n"

    def test_bad_order_prints_nothing(self, tmp_path, capsys):
        tile = write(tmp_path, "one.txt", "a\n")
        for args, message in (
            (["0"], "n must be >= 1, got 0"),
            (["-1"], "n must be >= 1, got -1"),
            (["1", "--pi", "2"], "n must be >= 2, got 1"),
            (["0", "--pi", "1"], "n must be >= 1, got 0"),
            (["0", "--pi", "2"], "n must be >= 1, got 0"),
            (["-1", "--pi", "3"], "n must be a perfect square >= 4, got -1"),
            (["1", "--pi", "3", "--regions", tile], "n must be >= 2, got 1"),
        ):
            assert run_cli(["matrix", *args]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["272"], "36856x272 matrix dump of 10024832 entries"),
            (["30", "--pi", "1"], "13050x900 matrix dump of 11745000 entries"),
            (["100000"], "4999950000x100000 matrix dump of 499995000000000 entries"),
        ],
    )
    def test_a_dump_above_the_bound_is_refused_before_it_is_built(
        self, capsys, monkeypatch, args, message
    ):
        def refuse(*_):
            raise AssertionError("matrix built")

        monkeypatch.setattr(gensudoku.cli, "build_difference_matrix", refuse)
        monkeypatch.setattr(gensudoku.cli, "build_constraint_matrix", refuse)
        assert run_cli(["matrix", *args]) == 2
        assert capsys.readouterr() == ("", f"error: {message} exceeds the 10000000 bound\n")

    def test_the_bound_counts_entries(self, capsys, monkeypatch):
        assert run_cli(["matrix", "9"]) == 0
        dump = capsys.readouterr().out
        # A(9) is 36 x 9 entries: at the bound it is dumped, and A(10) is not.
        monkeypatch.setattr(gensudoku.cli, "OUTPUT_LIMIT", 324)
        assert run_cli(["matrix", "9"]) == 0
        assert capsys.readouterr() == (dump, "")
        assert run_cli(["matrix", "10"]) == 2
        refusal = "error: 45x10 matrix dump of 450 entries exceeds the 324 bound\n"
        assert capsys.readouterr() == ("", refusal)
        for args, message in (
            (["0"], "n must be >= 1, got 0"),
            (["3", "--pi", "3"], "n must be a perfect square >= 4, got 3"),
        ):
            assert run_cli(["matrix", *args]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_dump_is_stable(self, capsys):
        run_cli(["matrix", "4"])
        first = capsys.readouterr().out
        run_cli(["matrix", "4"])
        assert capsys.readouterr().out == first


class TestCheckCommand:
    def test_holds(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", LATIN3_PUZZLE)
        solved = write(tmp_path, "s.txt", LATIN3_SOLVED)
        assert run_cli(["check", puzzle, solved]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "constraint 1: HOLDS",
            "constraint 2: HOLDS",
            "constraint 3: HOLDS",
        ]

    def test_not_applicable(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", LATIN3_PUZZLE)
        bad = write(tmp_path, "s.txt", "n 3\n1 1 1\n1 1 1\n1 1 1\n")
        assert run_cli(["check", puzzle, bad]) == 1
        out = capsys.readouterr().out.splitlines()
        assert all("NOT-APPLICABLE (zero difference at row 1)" in line for line in out)

    def test_contradicted_given_is_a_note_and_exits_1(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", "n 4\n4 0 0 0\n" + "0 0 0 0\n" * 3)
        solved = write(tmp_path, "s.txt", CLASSIC4_SOLVED)
        assert run_cli(["verify", puzzle, solved]) == 1
        verdict = capsys.readouterr().out
        assert verdict == "VIOLATION (given): cell 1 holds 1, given is 4\n"
        assert run_cli(["check", puzzle, solved]) == 1
        holds = "".join(f"constraint {k}: HOLDS\n" for k in (1, 2, 3))
        assert capsys.readouterr() == (holds, verdict)


class TestSolveCommand:
    def test_no_solution_exit_code(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", "n 2\n1 0\n0 2\n")
        assert run_cli(["solve", puzzle]) == 1
        capsys.readouterr()

    def test_cap_zero_is_input_error(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", LATIN3_PUZZLE)
        assert run_cli(["solve", puzzle, "--cap", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cap must be >= 1, got 0\n"
        assert captured.out == ""

    def test_selfcheck_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # A certificate that blames the first given rejects every grid.
        monkeypatch.setattr(
            gensudoku.problems, "_certificate", lambda p: lambda bits: len(p.distinct_groups)
        )
        puzzle = write(tmp_path, "p.txt", "n 2\n1 0\n0 0\n")
        assert run_cli(["solve", puzzle]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: search emitted an invalid solution")
        assert err.endswith("cell 1 holds 1, given is 1\n")
        assert "Traceback" not in err

    def test_running_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhaust(*_, **__):
            raise MemoryError

        monkeypatch.setattr(gensudoku.cli, "solve", exhaust)
        puzzle = write(tmp_path, "p.txt", LATIN3_PUZZLE)
        assert run_cli(["solve", puzzle]) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")

    def test_byte_stable(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", LATIN3_PUZZLE)
        run_cli(["solve", puzzle])
        first = capsys.readouterr().out
        run_cli(["solve", puzzle])
        assert capsys.readouterr().out == first

    def test_the_bound_counts_solution_entries(self, tmp_path, capsys, monkeypatch):
        # The empty classic 4x4 has 288 solutions of 16 cells: 4,608 entries.
        puzzle = write(tmp_path, "e4.txt", CLASSIC4_PUZZLE)
        assert run_cli(["solve", puzzle, "--cap", "2"]) == 0
        capped = capsys.readouterr()
        monkeypatch.setattr(gensudoku.cli, "OUTPUT_LIMIT", 288 * 16)
        assert run_cli(["solve", puzzle]) == 0
        out = capsys.readouterr().out
        assert out.count("solution ") == 288
        assert out.endswith("solutions 288 nodes 2176 exhausted true\n")
        monkeypatch.setattr(gensudoku.cli, "OUTPUT_LIMIT", 288 * 16 - 1)
        assert run_cli(["solve", puzzle]) == 2
        refusal = "more than 287 solutions of 16 cells exceed the 4607 bound; use --cap K"
        assert capsys.readouterr() == ("", f"error: {puzzle}: {refusal}\n")
        assert run_cli(["solve", puzzle, "--cap", "2"]) == 0
        assert capsys.readouterr() == capped
        assert run_cli(["solve", puzzle, "--cap", "0"]) == 2
        assert capsys.readouterr() == ("", "error: cap must be >= 1, got 0\n")

    def test_requests_share_no_state(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", LATIN2_PUZZLE)
        assert run_cli(["solve", puzzle, "--cap", "1"]) == 0
        assert capsys.readouterr().out.endswith("solutions 1 nodes 4 exhausted false\n")
        assert run_cli(["solve", puzzle]) == 0
        assert capsys.readouterr().out.endswith("solutions 2 nodes 8 exhausted true\n")

    def test_the_parser_is_built_at_import(self, tmp_path, capsys, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("parser built per request")

        monkeypatch.setattr(gensudoku.cli.argparse, "ArgumentParser", refuse)
        monkeypatch.setenv("COLUMNS", "80")
        puzzle = write(tmp_path, "p.txt", LATIN2_PUZZLE)
        assert run_cli(["solve", puzzle, "--cap", "1"]) == 0
        assert "solutions 1" in capsys.readouterr().out
        argv, code, out, err = HELP_PAGES[1]
        assert run_cli(argv) == code
        assert capsys.readouterr() == (out, err)


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "solution,code,text,result",
        [
            (LATIN3_SOLVED, 0, "OK\n", [True, None, "all clauses hold"]),
            (
                "n 3\n2 1 3\n3 2 1\n1 3 3\n",
                1,
                "VIOLATION (constraint): constraint 1, row 9: zero difference\n",
                [False, "constraint", "constraint 1, row 9: zero difference"],
            ),
            (
                "n 4\n2 1 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n",
                1,
                "VIOLATION (constraint): constraint 2, row 2: zero difference\n",
                [False, "constraint", "constraint 2, row 2: zero difference"],
            ),
        ],
    )
    def test_text_and_json(self, tmp_path, capsys, solution, code, text, result):
        n = int(solution.split()[1])  # the puzzle is the empty grid of that order
        puzzle = write(tmp_path, "p.txt", f"n {n}\n" + (" ".join("0" * n) + "\n") * n)
        solved = write(tmp_path, "s.txt", solution)
        for fmt in ([], ["--format", "text"]):
            assert run_cli(["verify", puzzle, solved, *fmt]) == code
            assert capsys.readouterr().out == text
        assert run_cli(["verify", puzzle, solved, "--format", "json"]) == code
        data = json.loads(capsys.readouterr().out)
        assert data == dict(zip(("ok", "clause", "detail"), result))


class TestOracleCommand:
    def test_text_and_json(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", LATIN2_PUZZLE)
        text = (
            "solution 1\n1 2\n2 1\n\nsolution 2\n2 1\n1 2\n\n"
            "solutions 2 nodes 16 exhausted true\n"
        )
        for fmt in ([], ["--format", "text"]):
            assert run_cli(["oracle", puzzle, *fmt]) == 0
            assert capsys.readouterr().out == text
        assert run_cli(["oracle", puzzle, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "solutions": [{"n": 2, "cells": [1, 2, 2, 1]}, {"n": 2, "cells": [2, 1, 1, 2]}],
            "nodes_explored": 16,
            "exhausted": True,
            "diagnostics": [],
        }

    def test_refusal_is_input_error(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", "n 4\n" + "\n".join(["0 0 0 0"] * 4))
        assert run_cli(["oracle", puzzle]) == 2
        refusal = "4^16 candidate fill-ins exceed the 100000000 bound"
        assert capsys.readouterr() == ("", f"error: {puzzle}: {refusal}\n")


def outcome_fields(outcome):
    return {
        "solutions": [{"n": sol.n, "cells": sol.cells} for sol in outcome.solutions],
        "nodes_explored": outcome.nodes_explored,
        "exhausted": outcome.exhausted,
        "diagnostics": outcome.diagnostics,
    }


def report_fields(report):
    return {
        "constraint_id": report.constraint_id,
        "holds": report.holds,
        "reconstructed": report.reconstructed,
        "first_violation": report.first_violation,
        "zero_rows": report.zero_rows,
    }


class TestJsonBytes:
    """``--format json`` prints exactly ``json.dumps`` of the result's fields.

    The expected field dicts, written out here name by name in field order,
    are the oracle.  A range fault and a first violation need a cell outside
    1..n, which no solution file can hold, so those results are handed to
    the CLI through the call it makes.
    """

    # Each summary pins (solutions, nodes_explored, exhausted).
    @pytest.mark.parametrize(
        "puzzle,cap,code,diagnosed,summary",
        [
            (LATIN3_PUZZLE, "3", 0, False, (3, 23, False)),
            ("n 3\n1 1 0\n0 0 0\n0 0 0\n", None, 1, True, (0, 0, True)),
            ("n 2\n1 0\n0 2\n", None, 1, False, (0, 0, True)),
            (CLASSIC4_PUZZLE, "1", 0, False, (1, 16, False)),
            (CLASSIC9_PUZZLE, "1", 0, False, (1, 81, False)),
            (GERECHTE4_PUZZLE, None, 0, False, (2, 16, True)),
        ],
        ids=[
            "solutions", "givens-conflict", "no-solution",
            "classic4-cap-1", "classic9-cap-1", "gerechte4",
        ],
    )
    def test_solve(self, tmp_path, capsys, puzzle, cap, code, diagnosed, summary):
        write(tmp_path, "tiling4.txt", TILING4)
        path = write(tmp_path, "p.txt", puzzle)
        limit = [] if cap is None else ["--cap", cap]
        assert run_cli(["solve", path, *limit, "--format", "json"]) == code
        outcome = solve(load_problem(path), cap=None if cap is None else int(cap))
        assert capsys.readouterr().out == json.dumps(outcome_fields(outcome)) + "\n"
        assert bool(outcome.diagnostics) is diagnosed
        assert (len(outcome.solutions), outcome.nodes_explored, outcome.exhausted) == summary

    @pytest.mark.parametrize(
        "puzzle,summary",
        [
            (LATIN2_PUZZLE, (2, 16, True)),
            ("n 2\n1 0\n1 0\n", (0, 4, True)),
            ("n 3\n1 2 3\n0 0 0\n0 0 0\n", (2, 729, True)),
            (GERECHTE4_PUZZLE, (2, 65536, True)),
        ],
        ids=["solutions", "no-solution", "latin3-first-row", "gerechte4"],
    )
    def test_oracle(self, tmp_path, capsys, puzzle, summary):
        write(tmp_path, "tiling4.txt", TILING4)
        path = write(tmp_path, "p.txt", puzzle)
        problem = load_problem(path)
        outcome = brute_force(problem)
        code = 0 if outcome.solutions else 1
        assert run_cli(["oracle", path, "--format", "json"]) == code
        assert capsys.readouterr().out == json.dumps(outcome_fields(outcome)) + "\n"
        assert (len(outcome.solutions), outcome.nodes_explored, outcome.exhausted) == summary
        found = {s.cells for s in solve(problem).solutions}
        assert {s.cells for s in outcome.solutions} == found

    @pytest.mark.parametrize(
        "puzzle,solution,clause",
        [
            (LATIN3_PUZZLE, LATIN3_SOLVED, None),
            (LATIN3_PUZZLE, LATIN3_SOLVED, "range"),
            (LATIN3_PUZZLE, "n 3\n2 1 3\n3 2 1\n1 3 3\n", "constraint"),
            ("n 3\n1 0 0\n0 0 0\n0 0 0\n", LATIN3_SOLVED, "given"),
        ],
        ids=["ok", "range", "constraint", "given"],
    )
    def test_verify(self, tmp_path, capsys, monkeypatch, puzzle, solution, clause):
        path = write(tmp_path, "p.txt", puzzle)
        solved = write(tmp_path, "s.txt", solution)
        cells = load_puzzle(solved).assignment().cells
        if clause == "range":
            cells = (4,) + cells[1:]
        result = verify_solution(load_problem(path), Assignment(3, cells))
        assert result.clause == clause
        if clause == "range":
            monkeypatch.setattr(gensudoku.cli, "verify_solution", lambda p, x: result)
        code = 0 if result.ok else 1
        assert run_cli(["verify", path, solved, "--format", "json"]) == code
        expected = {"ok": result.ok, "clause": result.clause, "detail": result.detail}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"

    @pytest.mark.parametrize(
        "puzzle,solution,shift,field,code,err",
        [
            (LATIN3_PUZZLE, LATIN3_SOLVED, 0, "holds", 0, ""),
            (LATIN3_PUZZLE, LATIN3_SOLVED, -1, "first_violation", 0, ""),
            (LATIN3_PUZZLE, "n 3\n1 1 1\n1 1 1\n1 1 1\n", 0, "zero_rows", 1, ""),
            (
                "n 3\n1 0 0\n0 0 0\n0 0 0\n",
                LATIN3_SOLVED,
                0,
                "holds",
                1,
                "VIOLATION (given): cell 1 holds 2, given is 1\n",
            ),
            (CLASSIC4_PUZZLE, CLASSIC4_SOLVED, 0, "holds", 0, ""),
            (
                "n 4\n4 0 0 0\n" + "0 0 0 0\n" * 3,
                CLASSIC4_SOLVED,
                0,
                "holds",
                1,
                "VIOLATION (given): cell 1 holds 1, given is 4\n",
            ),
        ],
        ids=[
            "holds", "first_violation", "zero_rows", "given",
            "classic4-holds", "classic4-given",
        ],
    )
    def test_check(
        self, tmp_path, capsys, monkeypatch, puzzle, solution, shift, field, code, err
    ):
        path = write(tmp_path, "p.txt", puzzle)
        solved = write(tmp_path, "s.txt", solution)
        # Values 0..n-1 are distinct per group, so each reconstructs to 1..n.
        grid = load_puzzle(solved).assignment()
        cells = tuple(v + shift for v in grid.cells)
        reports = check_necessary(load_problem(path), Assignment(grid.n, cells))
        assert all(getattr(r, field) for r in reports)
        if shift:
            # Reports no loaded solution gives: the certificate alone decides
            # the exit code, and it accepts the grid.
            monkeypatch.setattr(gensudoku.cli, "check_necessary", lambda p, x: reports)
        assert run_cli(["check", path, solved, "--format", "json"]) == code
        expected = json.dumps([report_fields(r) for r in reports])
        assert capsys.readouterr() == (expected + "\n", err)


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert run_cli(["solve", "/nonexistent/p.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_puzzle(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", "n 2\n1 2 3\n0 0\n")
        assert run_cli(["solve", puzzle]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_non_utf8_puzzle(self, tmp_path, capsys):
        puzzle = tmp_path / "p.txt"
        puzzle.write_bytes(b"\xff\xfe")
        assert run_cli(["solve", str(puzzle)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {puzzle}: 'utf-8' codec can't decode")
        assert "Traceback" not in err

    def test_non_utf8_region_file_names_its_path(self, tmp_path, capsys):
        regions = tmp_path / "part.txt"
        regions.write_bytes(b"a a b\n\xff b b\nc c c\n")
        puzzle = write(tmp_path, "p.txt", "n 3\nregions part.txt\n0 0 0\n0 0 0\n0 0 0\n")
        assert run_cli(["solve", puzzle]) == 2
        assert run_cli(["matrix", "3", "--pi", "3", "--regions", str(regions)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith(f"error: {regions}: 'utf-8' codec") for line in lines)

    def test_non_utf8_solution_names_its_path(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", LATIN3_PUZZLE)
        solved = tmp_path / "s.txt"
        solved.write_bytes(b"n 3\n2 1 3\n\xff")
        for command in ("verify", "check"):
            assert run_cli([command, puzzle, str(solved)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {solved}: 'utf-8' codec can't decode")

    def test_region_path_with_nul_byte_is_named(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", "n 3\nregions a\0b\n0 0 0\n0 0 0\n0 0 0\n")
        assert run_cli(["solve", puzzle]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'a'}\0b: embedded null byte\n"

    def test_dot_string_with_non_decimal_digit(self, tmp_path, capsys):
        puzzle = tmp_path / "p.txt"
        puzzle.write_text("²" + "." * 80 + "\n", encoding="utf-8")
        assert run_cli(["solve", str(puzzle)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {puzzle}: line 1, column 1: ")

    @pytest.mark.parametrize("length", [80, 82])
    def test_dot_string_of_wrong_length_names_the_count(self, tmp_path, capsys, length):
        puzzle = write(tmp_path, "p.txt", "." * length + "\n")
        assert run_cli(["solve", puzzle]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {puzzle}: line 1: expected 81 characters, got {length}\n"

    def test_one_line_header_is_still_a_header(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", "n 4\n")
        assert run_cli(["solve", puzzle]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {puzzle}: line 2: expected 4 grid rows, found 0\n"

    def test_bad_region_file_names_its_path(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", "n 3\nregions part.txt\n0 0 0\n0 0 0\n0 0 0\n")
        for text, line in (("a a b\na b b\nc c\n", 3), ("a a b\n\na b b\nc c\n", 4)):
            regions = write(tmp_path, "part.txt", text)
            assert run_cli(["solve", puzzle]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {regions}: line {line}: expected 3 labels, got 2\n"

    @pytest.mark.parametrize(
        "n, text, message",
        [
            (
                4,
                "a a b b\na a b b\nc c d d\nc c c d\n",
                "line 4, column 3: label 'c' holds more than 4 cells",
            ),
            (
                5,
                "a b c d e\nf a b c d\ne a b c d\ne a b c d\ne a b c d\n",
                "line 2, column 1: label 'f' starts region 6, expected 5 regions",
            ),
        ],
        ids=["five-cell-region", "six-labels"],
    )
    def test_region_file_that_is_no_partition_names_its_place(
        self, tmp_path, capsys, n, text, message
    ):
        rows = ("0 " * (n - 1) + "0\n") * n
        puzzle = write(tmp_path, "p.txt", f"n {n}\nregions part.txt\n{rows}")
        regions = write(tmp_path, "part.txt", text)
        for argv in (["solve", puzzle], ["matrix", str(n), "--pi", "3", "--regions", regions]):
            assert run_cli(argv) == 2
            assert capsys.readouterr() == ("", f"error: {regions}: {message}\n")

    @pytest.mark.parametrize(
        "puzzle_text, solved_text, where",
        [
            (LATIN2_PUZZLE, "n 2\n1 2\n0 1\n", "line 3, column 1"),
            (
                LATIN3_PUZZLE,
                "n 3\nregions r.txt\n2 1 3\n3 0 1\n1 3 2\n",
                "line 4, column 2",
            ),
            (
                "." * 81 + "\n",
                SOLVED9[:40] + "." + SOLVED9[41:] + "\n",
                "line 1, column 41",
            ),
            (
                "." * 81 + "\n",
                "\n\n   " + SOLVED9[:40] + "." + SOLVED9[41:] + "\n",
                "line 3, column 44",
            ),
        ],
        ids=["grid", "after-regions-line", "81-characters", "81-characters-indented"],
    )
    def test_blank_in_solution_names_its_line_and_column(
        self, tmp_path, capsys, puzzle_text, solved_text, where
    ):
        puzzle = write(tmp_path, "p.txt", puzzle_text)
        solved = write(tmp_path, "s.txt", solved_text)
        for command in ("verify", "check"):
            assert run_cli([command, puzzle, solved]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {solved}: {where}: "
                "grid has blank cells, not a full assignment\n"
            )

    def test_missing_region_file_names_the_puzzle_and_line_2(self, tmp_path, capsys):
        puzzle = write(tmp_path, "p.txt", "n 3\nregions none.txt\n0 0 0\n0 0 0\n0 0 0\n")
        solved = write(tmp_path, "s.txt", LATIN3_SOLVED)
        for argv in (["solve", puzzle], ["oracle", puzzle], ["check", puzzle, solved]):
            assert run_cli(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {puzzle}: line 2: [Errno 2] ")
            assert err.endswith(f"{str(tmp_path / 'none.txt')!r}\n")

    def test_solution_size_mismatch_names_the_solution(self, tmp_path, capsys):
        small = (CLASSIC4_PUZZLE, CLASSIC4_SOLVED, 4)
        large = (LATIN3_PUZZLE, LATIN3_SOLVED, 3)
        for (puzzle_text, _, p), (_, solved_text, s) in ((small, large), (large, small)):
            puzzle = write(tmp_path, "p.txt", puzzle_text)
            solved = write(tmp_path, "s.txt", solved_text)
            for command in ("verify", "check"):
                assert run_cli([command, puzzle, solved]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    f"error: {solved}: line 1: "
                    f"solution grid is {s}x{s}, puzzle is {p}x{p}\n"
                )
