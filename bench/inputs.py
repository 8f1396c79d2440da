"""Seeded inputs for each workload, made without the package under test.

Every workload runs in rounds.  ``make_round(workload, seed, r)`` gives round
r's operations from its own generator, seeded by (workload, seed, r), so a
seed always gives the same rounds and a replayed round is the same inputs.

9x9 puzzles are isomorphic variants of the fixed corpus: digit relabelling,
row and column permutations within bands and stacks, band and stack
permutations, and transpose, applied to puzzle and solution alike.  On a
unique puzzle, a search that must prove uniqueness (cap 2) visits the same
number of nodes under any digit relabelling, but not under the other
transforms.  ``cli-9x9`` draws every transform from the seed.  ``hard-search``
runs few instances per round, so it takes the structural transforms from a
fixed list and relabels digits from the seed: every seed then asks for the
same search work, and the figures of different seeds can be compared.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import cache
from itertools import permutations

from checker import Instance, Request, family_holds
from corpus import GERECHTE_4X4, SUDOKU_9X9

WORKLOADS = ("cli-9x9", "enumerate", "hard-search", "oracle")

# Wall-clock budget of one empty classic 25x25 attempt in hard-search.
BUDGET_S = 1.0
# Hard puzzles of hard-search and how many structural variants of each a
# round solves.
HARD_VARIANTS = (("fixture-5", 4), ("inkala", 3))


def _cells(text: str) -> tuple[int, ...]:
    return tuple(0 if ch == "." else int(ch) for ch in text)


def _givens(cells) -> tuple[tuple[int, int], ...]:
    return tuple((i, v) for i, v in enumerate(cells, start=1) if v)


def sudoku_structure(rng: random.Random) -> tuple[list[int], list[int], bool]:
    """Row order, column order and transpose flag of a 9x9 isomorphism."""

    def order() -> list[int]:
        return [3 * b + i for b in rng.sample(range(3), 3) for i in rng.sample(range(3), 3)]

    return order(), order(), rng.random() < 0.5


def sudoku_variant(cells, structure, digits) -> tuple[int, ...]:
    """Apply a structure from ``sudoku_structure`` and a digit relabelling."""
    rows, cols, transpose = structure
    relabel = (0, *digits)
    out = []
    for r in range(9):
        for c in range(9):
            src_r, src_c = rows[r], cols[c]
            if transpose:
                src_r, src_c = src_c, src_r
            out.append(relabel[cells[src_r * 9 + src_c]])
    return tuple(out)


@cache
def latin_squares(n: int, first_row_fixed: bool = False) -> frozenset:
    """All Latin squares of order n, or only those whose first row is 1..n."""
    rows = list(permutations(range(1, n + 1)))
    found = []

    def extend(grid, used):
        if len(grid) == n:
            found.append(tuple(v for row in grid for v in row))
            return
        for row in rows:
            if all(row[c] not in used[c] for c in range(n)):
                extend(grid + [row], [used[c] | {row[c]} for c in range(n)])

    if first_row_fixed:
        extend([rows[0]], [{v} for v in rows[0]])
    else:
        extend([], [set() for _ in range(n)])
    return frozenset(found)


def _relabelled(grids, first_row) -> frozenset:
    """Grids with first row 1..n, relabelled so that it reads ``first_row``."""
    relabel = (0, *first_row)
    return frozenset(tuple(relabel[v] for v in g) for g in grids)


def _solutions_of(inst: Instance, pool) -> frozenset:
    """The grids of ``pool`` that solve ``inst``."""
    return frozenset(
        g
        for g in pool
        if all(family_holds(inst, g)) and all(g[c - 1] == v for c, v in inst.givens)
    )


def _with_solutions(inst: Instance, pool) -> Instance:
    return replace(inst, solutions=_solutions_of(inst, pool))


def _regions(labels: str, rows, cols, transpose: bool) -> tuple[tuple[int, ...], ...]:
    """Regions of a 4x4 label tiling after permuting rows and columns."""
    cells: dict[str, list[int]] = {}
    for r in range(4):
        for c in range(4):
            src_r, src_c = rows[r], cols[c]
            if transpose:
                src_r, src_c = src_c, src_r
            cells.setdefault(labels[src_r * 4 + src_c], []).append(r * 4 + c + 1)
    return tuple(tuple(cells[k]) for k in sorted(cells))


def _grid_text(cells, n: int) -> str:
    rows = [" ".join(str(v) for v in cells[r * n : r * n + n]) for r in range(n)]
    return f"n {n}\n" + "\n".join(rows) + "\n"


def _dot_text(cells) -> str:
    return "".join(str(v) if v else "." for v in cells) + "\n"


def _malformed(rng: random.Random, cells, solution) -> tuple[str, tuple[str, ...], str]:
    """A broken input file: (file name, argv, text); each must exit with 2."""
    text = _grid_text(cells, 9)
    lines = text.splitlines()
    kind = rng.randrange(6)
    solve = ("solve", "puzzle.txt", "--cap", "2", "--format", "json")
    if kind == 0:
        return "puzzle.txt", solve, "m 9\n" + "\n".join(lines[1:]) + "\n"
    if kind == 1:
        return "puzzle.txt", solve, "\n".join(lines[:-1]) + "\n"
    if kind in (2, 3):
        row = rng.randrange(1, 10)
        tokens = lines[row].split()
        tokens[rng.randrange(9)] = "10" if kind == 2 else "x"
        lines[row] = " ".join(tokens)
        return "puzzle.txt", solve, "\n".join(lines) + "\n"
    if kind == 4:
        return "puzzle.txt", solve, _dot_text(cells)[:80] + "\n"
    blanked = list(solution)
    blanked[rng.randrange(81)] = 0
    return "solution.txt", ("check", "puzzle.txt", "solution.txt"), _grid_text(blanked, 9)


def _cli_round(rng: random.Random, r: int) -> list[Request]:
    requests = []
    fixtures = SUDOKU_9X9[:5]
    for k, (label, puzzle, solution) in enumerate(fixtures):
        structure = sudoku_structure(rng)
        digits = rng.sample(range(1, 10), 9)
        p = sudoku_variant(_cells(puzzle), structure, digits)
        s = sudoku_variant(_cells(solution), structure, digits)
        inst = Instance(label, "classic", 9, _givens(p), solutions=frozenset([s]), cap=2)
        puzzle_file = ("puzzle.txt", _dot_text(p) if rng.random() < 0.5 else _grid_text(p, 9))
        # One solve per round renders text, so the tableau renderer is used.
        fmt = "text" if k == r % len(fixtures) else "json"
        requests.append(
            Request(
                f"solve-{fmt}",
                ("solve", "puzzle.txt", "--cap", "2", "--format", fmt),
                (puzzle_file,),
                inst,
                s,
                0,
            )
        )
        row = rng.randrange(9)
        a, b = rng.sample(range(9), 2)
        bad = list(s)
        bad[row * 9 + a], bad[row * 9 + b] = bad[row * 9 + b], bad[row * 9 + a]
        bad = tuple(bad)
        good_text = _dot_text(s) if rng.random() < 0.5 else _grid_text(s, 9)
        for grid, text in ((s, good_text), (bad, _grid_text(bad, 9))):
            requests.append(
                Request(
                    "check",
                    ("check", "puzzle.txt", "solution.txt", "--format", "json"),
                    (puzzle_file, ("solution.txt", text)),
                    inst,
                    grid,
                    0 if grid == s else 1,
                )
            )
        requests.append(
            Request(
                "verify",
                ("verify", "puzzle.txt", "solution.txt"),
                (puzzle_file, ("solution.txt", _grid_text(bad, 9))),
                inst,
                bad,
                1,
            )
        )
    label, puzzle, solution = rng.choice(fixtures)
    name, argv, text = _malformed(rng, _cells(puzzle), _cells(solution))
    files = {"puzzle.txt": _grid_text(_cells(puzzle), 9), name: text}
    inst = Instance(label, "classic", 9, _givens(_cells(puzzle)))
    requests.append(Request("malformed", argv, tuple(files.items()), inst, None, 2))
    return requests


def _enumerate_round(rng: random.Random) -> list[Instance]:
    latin4 = latin_squares(4)
    classic = Instance("classic-4x4", "classic", 4)
    ops = [_with_solutions(classic, latin4), Instance("latin-4x4", "latin", 4, solutions=latin4)]
    first_row = tuple(rng.sample(range(1, 6), 5))
    ops.append(
        Instance(
            "latin-5x5-first-row",
            "latin",
            5,
            _givens(first_row + (0,) * 20),
            solutions=_relabelled(latin_squares(5, first_row_fixed=True), first_row),
        )
    )
    for k, labels in enumerate(GERECHTE_4X4):
        rows, cols, transpose = rng.sample(range(4), 4), rng.sample(range(4), 4), rng.random() < 0.5
        inst = Instance(f"gerechte-{k + 1}", "gerechte", 4, regions=_regions(labels, rows, cols, transpose))
        ops.append(_with_solutions(inst, latin4))
    return ops


@cache
def _hard_structures(label: str, count: int) -> tuple:
    structure_rng = random.Random(f"hard-search-structures:{label}")
    return tuple(sudoku_structure(structure_rng) for _ in range(count))


def _hard_round(rng: random.Random) -> list[Instance]:
    ops = []
    corpus = {label: (puzzle, solution) for label, puzzle, solution in SUDOKU_9X9}
    for label, count in HARD_VARIANTS:
        puzzle, solution = corpus[label]
        for structure in _hard_structures(label, count):
            digits = rng.sample(range(1, 10), 9)
            p = sudoku_variant(_cells(puzzle), structure, digits)
            s = sudoku_variant(_cells(solution), structure, digits)
            ops.append(
                Instance(label, "classic", 9, _givens(p), solutions=frozenset([s]), cap=2, selfcheck=False)
            )
    ops.append(Instance("latin-20x20", "latin", 20, cap=1, selfcheck=False))
    ops.append(Instance("classic-25x25", "classic", 25, cap=1, selfcheck=False, budget_s=BUDGET_S))
    return ops


def _oracle_round(rng: random.Random) -> list[Instance]:
    latin3 = latin_squares(3)
    classic4 = _with_solutions(Instance("classic-4x4", "classic", 4), latin_squares(4)).solutions
    ops = []
    for family, n, pool, blanks in (
        ("latin", 3, latin3, 6),
        ("classic", 4, classic4, 5),
        ("latin", 3, latin3, 7),
        ("classic", 4, classic4, 6),
        ("latin", 3, latin3, 8),
    ):
        grid = list(rng.choice(sorted(pool)))
        for cell in rng.sample(range(n * n), blanks):
            grid[cell] = 0
        inst = Instance(f"{family}-{n}x{n}-{blanks}-blanks", family, n, _givens(grid), oracle=True, work=n**blanks)
        ops.append(_with_solutions(inst, pool))
    return ops


def make_round(workload: str, seed: int, r: int) -> list:
    """Round r of ``workload`` for ``seed``: Requests (cli-9x9) or Instances."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    if workload == "cli-9x9":
        return _cli_round(rng, r)
    if workload == "enumerate":
        return _enumerate_round(rng)
    if workload == "hard-search":
        return _hard_round(rng)
    if workload == "oracle":
        return _oracle_round(rng)
    raise ValueError(f"unknown workload {workload!r}")
