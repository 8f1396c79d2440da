"""Property tests: no text, file or argument makes the parsers, the CLI or
the library's entry points fail untyped, ``solve`` finds exactly the
oracles' solutions on random gerechte problems, up to fitted 9x9 ones, and
its nodes and solution order are those of the reference search.

Any text given to a parser yields a document or a typed format error, and
each line and column it reports points at the text it names.  ``run_cli``
on generated puzzle, region and solution files (n <= 4, or arbitrary bytes)
returns an exit code of 0, 1 or 2 and raises nothing; ``check`` and
``verify`` exit alike on each puzzle and solution, and each ``error:`` line
starts with a file the request reads.  A public constructor
or free function (``solve``, ``gsgn``, the sign sums, ``reconstruct``, the
permutation and matrix builders, the rank, the checkers, ``render_tableau``,
the parsers, ``build_problem`` and it on a ``PuzzleDocument`` built from the
arguments) or vector method (``apply``, ``apply_transpose``,
``apply_to_vector``) given a str, float, bool, None or nested tuple in
place of an argument or of one of its items returns or raises a
GenSudokuError.
Example counts are bounded so that the whole module runs in a few seconds.
"""

import ast
import contextlib
import io
import random
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from gensudoku import (
    Assignment,
    ConstraintMatrix,
    GenSudokuError,
    Permutation,
    ProblemSpec,
    PuzzleDocument,
    PuzzleFormatError,
    Partition,
    block_permutation,
    brute_force,
    build_constraint_matrix,
    build_difference_matrix,
    build_problem,
    check_necessary,
    gsgn,
    identity_permutation,
    make_classic_spec,
    make_gerechte_spec,
    make_latin_spec,
    pairwise_sign_sum,
    parse_dot_string,
    parse_puzzle,
    parse_regions,
    partition_permutation,
    rank_of_difference_matrix,
    reconstruct,
    render_tableau,
    sign_sum_closed_form,
    solve,
    transpose_permutation,
    triangular_sum,
    verify_solution,
)
from gensudoku.cli import run_cli
from reference_data import (
    INKALA,
    REGION3_GROUPS,
    SUDOKU_9X9_FIXTURES,
    X3,
    band_order,
    box_groups,
    count_grids_by_row_product,
    deal_regions,
    exact_cover_solutions,
    latin_square,
    reference_search,
    rows_and_columns,
    shuffled_latin_square,
    shuffled_sudoku_grid,
)

# Characters that build headers, grids and region lines, plus digits that
# are not ASCII: "²" is a digit int() rejects, "٣" a decimal digit it reads.
GRID_CHARS = "n regions0123456789.-\n\t²٣ab\x00"
TEXT = st.text(st.one_of(st.sampled_from(GRID_CHARS), st.characters()), max_size=120)
# Leading newlines and spaces move the 81-character form off line 1, column 1.
DOT_STRINGS = st.builds(
    str.__add__,
    st.text(st.sampled_from("\n "), max_size=4),
    st.text(st.sampled_from("0123456789.²٣x "), min_size=79, max_size=83),
)


def check_error_position(lines, exc):
    """The error's line is in the text (or one past it, a missing row) and
    holds what the message counts or quotes."""
    assert 1 <= exc.line <= len(lines) + 1
    column = "" if exc.column is None else f", column {exc.column}"
    prefix = f"<string>: line {exc.line}{column}: "
    assert str(exc).startswith(prefix)
    message = str(exc)[len(prefix) :]
    line = lines[exc.line - 1] if exc.line <= len(lines) else ""
    count = re.fullmatch(r"expected \d+ (values|labels|characters), got (\d+)", message)
    if count:
        found = len(line.strip()) if count[1] == "characters" else len(line.split())
        assert found == int(count[2])
    quoted = re.fullmatch(r"character (.+) is not a digit or '\.'", message)
    if quoted:
        assert line[exc.column - 1] == ast.literal_eval(quoted[1])
    label = re.fullmatch(r"label (\S+) (starts region|holds more than) \d+.*", message)
    if label:
        assert line.split()[exc.column - 1] == ast.literal_eval(label[1])


def check_first_blank(lines, doc, grid_form):
    """``first_blank`` is None without blanks, else where the first one was read."""
    assert (doc.first_blank is None) == (0 not in doc.cells)
    if doc.first_blank is None:
        return
    (line, column), i = doc.first_blank, doc.cells.index(0)
    text = lines[line - 1]
    if grid_form:
        row = doc.cells[i - column + 1 : i - column + 1 + doc.n]
        assert [int(token) for token in text.split()] == list(row)
    else:
        assert column == len(text) - len(text.lstrip()) + i + 1
        assert text[column - 1] in ".0"


@settings(max_examples=300, deadline=None)
@given(st.one_of(TEXT, DOT_STRINGS))
@example("n 2\nregions r\n1 0\n0 0\n")
@example("\n\n  " + "1" * 40 + "." * 41)
@example("\n\n  " + "." * 40 + "x" + "." * 40)
@example("a a\n\nb\n")
def test_parsers_return_a_document_or_a_format_error(text):
    # Every line and column a parser reports points at the text it names.
    lines = text.splitlines()
    for parse in (parse_puzzle, parse_dot_string, parse_regions):
        try:
            result = parse(text)
        except PuzzleFormatError as exc:
            check_error_position(lines, exc)
            continue
        if parse is parse_regions:
            assert isinstance(result, Partition)
        else:
            assert isinstance(result, PuzzleDocument)
            check_first_blank(lines, result, grid_form=parse is parse_puzzle)


def latin_squares(n):
    """Cells of a cyclic Latin square with its rows, columns and values permuted."""
    perms = st.tuples(*(st.permutations(range(n)) for _ in range(3)))
    return perms.map(lambda p: latin_square(*p))


def grids(n):
    """Cells of any grid over 1..n, or of a Latin square."""
    any_grid = st.lists(st.integers(1, n), min_size=n * n, max_size=n * n)
    return st.one_of(any_grid, latin_squares(n))


@st.composite
def grid_file(draw, n, cells):
    """An ``n <n>`` file of ``cells`` (sometimes naming regions), or any bytes."""
    rows = [" ".join(map(str, cells[r * n : (r + 1) * n])) for r in range(n)]
    header = [f"n {n}"]
    region = draw(st.sampled_from([None, None, None, "r.txt", "missing.txt", "a\x00b"]))
    if region is not None:
        header.append(f"regions {region}")
    text = "\n".join(header + rows) + "\n"
    return draw(st.one_of(st.just(text.encode()), st.binary(max_size=80)))


@st.composite
def puzzle_file(draw, n, oracle):
    """A grid with blanks; the oracle's are few enough to enumerate quickly."""
    most = {2: 4, 3: 7, 4: 5}[n] if oracle else n * n
    blanks = draw(st.sets(st.integers(0, n * n - 1), max_size=most))
    cells = [0 if i in blanks else v for i, v in enumerate(draw(grids(n)))]
    return draw(grid_file(n, cells))


@st.composite
def region_file(draw, n):
    """Random labels (rarely a partition), or the columns, or arbitrary bytes."""
    any_labels = st.lists(st.sampled_from("abcd"[:n]), min_size=n * n, max_size=n * n)
    columns = st.just(["abcd"[i % n] for i in range(n * n)])
    labels = draw(st.one_of(any_labels, columns))
    rows = [" ".join(labels[r * n : (r + 1) * n]) + "\n" for r in range(n)]
    return draw(st.one_of(st.just("".join(rows).encode()), st.binary(max_size=40)))


@st.composite
def cli_request(draw):
    command = draw(st.sampled_from(["solve", "verify", "check", "oracle"]))
    n = draw(st.integers(2, 4))
    files = {
        "p.txt": draw(puzzle_file(n, oracle=command == "oracle")),
        "r.txt": draw(region_file(n)),
        "s.txt": draw(grid_file(n, draw(grids(n)))),
    }
    return command, files


@settings(max_examples=150, deadline=None)
@given(cli_request())
def test_cli_exits_0_1_or_2_on_generated_files(request):
    command, files = request
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [command, str(Path(tmp) / "p.txt")]
        if command in ("verify", "check"):
            argv.append(str(Path(tmp) / "s.txt"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")


@st.composite
def puzzle_and_solution(draw):
    """Puzzle, region and solution files of one order; the puzzle is often
    the solution with blanks, so check and verify also see grids that fit."""
    n = draw(st.integers(2, 4))
    cells = draw(grids(n))
    source = cells if draw(st.booleans()) else draw(grids(n))
    blanks = draw(st.sets(st.integers(0, n * n - 1)))
    puzzle = [0 if i in blanks else v for i, v in enumerate(source)]
    return {
        "p.txt": draw(grid_file(n, puzzle)),
        "r.txt": draw(region_file(n)),
        "s.txt": draw(grid_file(n, cells)),
    }


@settings(max_examples=150, deadline=None)
@given(puzzle_and_solution())
def test_check_and_verify_agree_and_every_error_names_a_file(files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        # A region path the system cannot open at all is named itself.
        named = [str(Path(tmp) / name) for name in (*files, "a\x00b")]
        codes = {}
        for command in ("check", "verify"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes[command] = run_cli([command, named[0], named[2]])
            for line in err.getvalue().splitlines():
                if line.startswith("error:"):
                    assert any(line.startswith(f"error: {path}: ") for path in named), line
    assert codes["check"] == codes["verify"]


@st.composite
def gerechte_problem(draw):
    """Any n <= 4 region partition, with givens read from a drawn grid.

    Half the partitions are built so that a drawn Latin square is a gerechte
    grid for them (region i takes the i-th cell of each value, in a drawn
    order); the rest are any n groups of n cells, connected or not, and
    mostly have no solution.  The givens come from that square, from another
    Latin square or from any grid, so they may repeat a value in a group.
    Enough cells are given that brute_force stays under n ** 7 candidates.
    """
    n = draw(st.integers(2, 4))
    square = draw(latin_squares(n))
    if draw(st.booleans()):
        dealt = deal_regions(square, lambda cells, _: draw(st.permutations(cells)))
        regions = [sorted(region) for region in dealt]
    else:
        order = draw(st.permutations(range(1, n * n + 1)))
        regions = [sorted(order[r * n : (r + 1) * n]) for r in range(n)]
    grid = draw(st.one_of(st.just(square), grids(n)))
    count = draw(st.integers(n * n - {2: 4, 3: 7, 4: 6}[n], n * n))
    cells = draw(st.permutations(range(1, n * n + 1)))[:count]
    return n, regions, [(c, grid[c - 1]) for c in cells]


def test_random_gerechte_solutions_match_the_oracles():
    kinds = set()

    @settings(max_examples=120, deadline=None)
    @given(gerechte_problem())
    @example((3, [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [(1, 1), (5, 1)]))  # regions = rows
    def check(problem):
        n, regions, givens = problem
        spec = make_gerechte_spec(Partition(n, regions), givens)
        outcome = solve(spec)
        found = {s.cells for s in outcome.solutions}
        assert outcome.exhausted
        assert found == {s.cells for s in brute_force(spec).solutions}
        if n == 3:
            assert found == set(count_grids_by_row_product(3, regions, givens)[1])
        value = dict(givens)
        groups = regions + rows_and_columns(n)
        assert found == set(exact_cover_solutions(n, groups, givens))
        held = [[value[c] for c in group if c in value] for group in groups]
        repeats = any(len(h) != len(set(h)) for h in held)
        assert bool(outcome.diagnostics) == repeats
        kinds.add("conflict" if repeats else "solved" if found else "none")

    check()
    assert kinds == {"solved", "none", "conflict"}


@st.composite
def fitted_gerechte_9x9(draw):
    """A 9x9 gerechte partition, givens, and a Latin square that fits both.

    A quarter of the draws take the classic boxes and a Sudoku grid: the
    pattern grid with its bands, stacks, the rows and columns within them
    and its values shuffled.  The rest deal each value's nine cells of a
    shuffled cyclic Latin square one to each region, so the square fits the
    scattered regions.  Every cell holding one of up to two drawn values is
    blank, which leaves swapping those two values as a second solution;
    more cells are blanked up to 60 in all, 45 for the boxes, whose pattern
    grid leaves many more solutions at the same count.  The shuffles come
    from a drawn seed: shrunk towards the identity they would make the
    regions the rows and blank the top rows, whose fills run to thousands.
    """
    boxes = draw(st.integers(0, 3)) == 0
    cleared = draw(st.sets(st.integers(1, 9), max_size=2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if boxes:
        square = shuffled_sudoku_grid(rng, 3)
        regions = box_groups(3)
    else:
        square = shuffled_latin_square(rng, 9)
        regions = [sorted(region) for region in deal_regions(square, rng.sample)]
    blanks = {i for i in range(81) if square[i] in cleared}
    others = [i for i in range(81) if i not in blanks]
    count = draw(st.integers(0, (45 if boxes else 60) - len(blanks)))
    blanks.update(rng.sample(others, count))
    givens = [(i + 1, square[i]) for i in range(81) if i not in blanks]
    return boxes, regions, givens, tuple(square)


def test_fitted_gerechte_9x9_solutions_match_the_exact_cover_oracle():
    reached = []  # (boxes, number of solutions) per example
    lines = rows_and_columns(9)

    @settings(max_examples=80, deadline=None)
    @given(fitted_gerechte_9x9())
    def check(problem):
        boxes, regions, givens, square = problem
        outcome = solve(make_gerechte_spec(Partition(9, regions), givens))
        found = [s.cells for s in outcome.solutions]
        expected = exact_cover_solutions(9, lines + regions, givens)
        assert outcome.exhausted and not outcome.diagnostics
        assert len(set(found)) == len(found) and set(found) == set(expected)
        assert square in found
        reached.append((boxes, len(found)))

    check()
    assert {boxes for boxes, _ in reached} == {True, False}
    assert sum(count >= 2 for _, count in reached) >= 5


@st.composite
def search_problem(draw):
    """A classic 4x4, 9x9 or 16x16, Latin 4x4 to 12x12, fitted gerechte 9x9,
    raw 4x4 to 6x6 or hard 9x9 problem, and a cap.

    A raw problem is a ProblemSpec of rows, columns and a Permutation that
    deals each value's cells of a Latin square one to each group, listing
    each group's cells in a shuffled order, not ascending.  (At 8x8 such a
    search with few givens took up to two million nodes.)  The givens are
    read from a grid that solves the problem (a shuffled pattern Sudoku
    grid, a shuffled cyclic Latin square, or the fitted square), at any
    number of drawn cells, for 16x16 at most 48 or at least 128.  A hard
    problem is Inkala's puzzle or the fifth 9x9 fixture with its bands,
    stacks, the rows and columns within them and its values shuffled, maybe
    transposed, less up to three givens.  Its search branches and
    backtracks through tens to thousands of nodes, so it reaches stop
    groups with a dead value beside a hidden single, and with two hidden
    singles, which the other draws rarely do.  In a quarter of the draws
    one given is changed to any value, which may leave no solution or
    repeat a value in a group.  4x4 problems are enumerated in full, larger
    ones stop at a cap of 1 to 3 solutions.  Outside the 16x16 band left
    out, an example took at most about 2 s over 20,000 drawn; inside it,
    draws with 59, 65 and 83 givens ran ``solve`` for 12 s to over 100 s.
    """
    kind = draw(st.sampled_from(("classic", "latin", "gerechte", "raw", "hard")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "gerechte":
        _, regions, givens, _ = draw(fitted_gerechte_9x9())
        n, make = 9, lambda _, g: make_gerechte_spec(Partition(9, regions), g)
    elif kind == "hard":
        puzzle = parse_dot_string(rng.choice((INKALA, SUDOKU_9X9_FIXTURES[4]))).cells
        rows, cols, flip = band_order(rng), band_order(rng), rng.random() < 0.5
        digits = [0] + rng.sample(range(1, 10), 9)
        n, make = 9, make_classic_spec
        cells = [digits[puzzle[9 * c + r if flip else 9 * r + c]] for r in rows for c in cols]
        givens = [(i + 1, v) for i, v in enumerate(cells) if v]
        for _ in range(draw(st.integers(0, 3))):
            givens.pop(rng.randrange(len(givens)))
    else:
        if kind == "classic":
            m = draw(st.sampled_from((2, 3, 4)))
            n, make = m * m, make_classic_spec
            square = shuffled_sudoku_grid(rng, m)
        else:
            n = draw(st.integers(4, 12 if kind == "latin" else 6))
            square = shuffled_latin_square(rng, n)
        if kind == "latin":
            make = make_latin_spec
        elif kind == "raw":
            regions = deal_regions(square, rng.sample)
            dealt = rng.sample([rng.sample(region, n) for region in regions], n)
            third = Permutation(tuple(cell for group in dealt for cell in group))
            make = lambda n, g: ProblemSpec(
                n, (identity_permutation(n), transpose_permutation(n), third), g
            )
        # Between 49 and 127 givens a 16x16 search can take seconds.
        counts = st.integers(0, 48) | st.integers(128, 256) if n == 16 else st.integers(0, n * n)
        cells = rng.sample(range(1, n * n + 1), n * n)
        givens = [(c, square[c - 1]) for c in cells[: draw(counts)]]
    if givens and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(givens) - 1))
        givens[i] = (givens[i][0], draw(st.integers(1, n)))
    return make(n, givens), None if n == 4 else draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(search_problem())
def test_search_nodes_and_order_match_the_reference_search(problem):
    # The low mask, the dead flag, the stale (group, value) marks and the
    # span bound on the pairs checked for locked places only skip work:
    # every node, in order, and every solution, in order, stay those of the
    # search that recounts.
    spec, cap = problem
    outcome = solve(spec, cap=cap)
    solutions, nodes, exhausted = reference_search(spec, cap)
    assert [s.cells for s in outcome.solutions] == solutions
    assert outcome.nodes_explored == nodes
    assert outcome.exhausted == exhausted


# Small ints only: a drawn order builds a spec of that size.
LEAVES = st.one_of(
    st.integers(-2, 10), st.text(max_size=3), st.floats(), st.booleans(), st.none()
)
OBJECTS = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=8)
LATIN3 = make_latin_spec(3)
# Each public constructor, each free function that takes an int, a sequence
# of ints, a library object or text, and each method that takes a vector,
# with valid arguments.
CALLS = {
    "make_latin_spec": (make_latin_spec, (3, ((1, 2), (5, 3)))),
    "make_classic_spec": (make_classic_spec, (4, ((1, 2), (6, 3)))),
    "make_gerechte_spec": (make_gerechte_spec, (Partition(3, REGION3_GROUPS), ((1, 2),))),
    "ProblemSpec": (ProblemSpec, (3, LATIN3.constraints, ((1, 2),))),
    "Assignment": (Assignment, (3, X3)),
    "Partition": (Partition, (3, REGION3_GROUPS)),
    "Permutation": (Permutation, ((2, 1, 3, 4),)),
    "solve": (solve, (LATIN3, 5)),
    "brute_force": (brute_force, (LATIN3,)),
    "verify_solution": (verify_solution, (LATIN3, Assignment(3, X3))),
    "check_necessary": (check_necessary, (LATIN3, Assignment(3, X3))),
    "identity_permutation": (identity_permutation, (3,)),
    "transpose_permutation": (transpose_permutation, (3,)),
    "block_permutation": (block_permutation, (4,)),
    "partition_permutation": (partition_permutation, (Partition(3, REGION3_GROUPS),)),
    "triangular_sum": (triangular_sum, (3,)),
    "build_difference_matrix": (build_difference_matrix, (3,)),
    "build_constraint_matrix": (build_constraint_matrix, (3, LATIN3.constraints[1])),
    "gsgn": (gsgn, ((3, -1, 7),)),
    "pairwise_sign_sum": (pairwise_sign_sum, ((2, 8, 1), 2)),
    "sign_sum_closed_form": (sign_sum_closed_form, (2, 3)),
    "reconstruct": (reconstruct, (build_difference_matrix(3), (2, 1, 3))),
    "rank_of_difference_matrix": (rank_of_difference_matrix, (build_difference_matrix(3),)),
    "render_tableau": (render_tableau, (Assignment(3, X3),)),
    "parse_puzzle": (parse_puzzle, ("n 2\n1 0\n0 2\n", "p.txt")),
    "parse_dot_string": (parse_dot_string, ("." * 81, "p.txt")),
    "parse_regions": (parse_regions, ("a b\nb a\n", "r.txt")),
    "build_problem": (build_problem, (PuzzleDocument(3, X3),)),
    # No region path: one drawn in its place would name a file to open.
    "build_problem(PuzzleDocument)": (
        lambda n, cells, source_name, first_blank: build_problem(
            PuzzleDocument(n, cells, None, source_name, first_blank)
        ),
        (3, X3, "p.txt", (2, 1)),
    ),
    "ConstraintMatrix": (ConstraintMatrix, (2, 3, ((1, 2), (3, 1)))),
    "ConstraintMatrix.apply": (build_difference_matrix(3).apply, ((2, 1, 3),)),
    "ConstraintMatrix.apply_transpose": (build_difference_matrix(3).apply_transpose, ((1, -1, 1),)),
    "Permutation.apply_to_vector": (Permutation((2, 1, 3, 4)).apply_to_vector, ((5, 6, 7, 8),)),
}


def put(data, value, obj):
    """``value`` with ``obj`` in its place, or in place of one of its items."""
    if type(value) is tuple and value and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(value) - 1))
        return value[:i] + (put(data, value[i], obj),) + value[i + 1 :]
    return obj


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(CALLS)), st.data())
def test_constructors_return_or_raise_a_typed_error(name, data):
    build, args = CALLS[name]
    i = data.draw(st.integers(0, len(args) - 1))
    args = list(args)
    args[i] = put(data, args[i], data.draw(OBJECTS))
    try:
        build(*args)
    except GenSudokuError:
        pass
