"""Property tests: no text or file makes the parsers or the CLI fail untyped.

Any text given to a parser yields a document or a typed format error, and
``run_cli`` on generated puzzle, region and solution files (n <= 4, or
arbitrary bytes) returns an exit code of 0, 1 or 2 and raises nothing.
Example counts are bounded so that the whole module runs in a few seconds.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gensudoku import (
    InvalidPartitionError,
    PuzzleDocument,
    PuzzleFormatError,
    Partition,
    parse_dot_string,
    parse_puzzle,
    parse_regions,
)
from gensudoku.cli import run_cli

# Characters that build headers, grids and region lines, plus digits that
# are not ASCII: "²" is a digit int() rejects, "٣" a decimal digit it reads.
GRID_CHARS = "n regions0123456789.-\n\t²٣ab\x00"
TEXT = st.text(st.one_of(st.sampled_from(GRID_CHARS), st.characters()), max_size=120)
DOT_STRINGS = st.text(st.sampled_from("0123456789.²٣x "), min_size=79, max_size=83)


@settings(max_examples=300, deadline=None)
@given(st.one_of(TEXT, DOT_STRINGS))
def test_parsers_return_a_document_or_a_format_error(text):
    for parse in (parse_puzzle, parse_dot_string):
        try:
            assert isinstance(parse(text), PuzzleDocument)
        except PuzzleFormatError:
            pass
    # A label grid of the right shape can still not partition the cells.
    try:
        assert isinstance(parse_regions(text), Partition)
    except (PuzzleFormatError, InvalidPartitionError):
        pass


def grids(n):
    """Cells of any grid over 1..n, or of a Latin square (cyclic, relabelled)."""
    any_grid = st.lists(st.integers(1, n), min_size=n * n, max_size=n * n)
    latin = st.permutations(range(1, n + 1)).map(
        lambda labels: [labels[(r + c) % n] for r in range(n) for c in range(n)]
    )
    return st.one_of(any_grid, latin)


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
