"""Puzzle and region file parsing plus tableau rendering.

Puzzle format: line 1 is ``n <n>``, an optional ``regions <path>`` line,
then n lines of n whitespace-separated integers with 0 marking an empty
cell.  A convenience reader also accepts the common 81-character string
(digits and '.') for 9x9 grids.  Region files hold n lines of n arbitrary
labels; groups are ordered by first appearance in reading order.
"""

from __future__ import annotations

import math
import os
from functools import partial
from pathlib import Path

from .condition import Assignment, ProblemSpec
from .errors import DimensionError, PuzzleFormatError, Record, SpecError, as_ints, require_instance
from .permutations import Partition
from .problems import make_classic_spec, make_gerechte_spec, make_latin_spec


class PuzzleDocument(Record):
    """Parsed puzzle file: row-major cells with 0 for blanks, optional region path.

    ``first_blank`` is the (line, column) where the parser read the first
    blank cell, or None when no cell is blank.  Fields are checked when
    built: ``n`` and the n^2 cells as ``Assignment`` checks them, in 0..n.
    """

    __match_args__ = ("n", "cells", "region_path", "source_name", "first_blank")

    def __init__(self, n, cells, region_path=None, source_name="<string>", first_blank=None):
        cells = Assignment(n, cells).cells
        if not set(cells) <= set(range(n + 1)):
            i, value = next((i, v) for i, v in enumerate(cells, 1) if not 0 <= v <= n)
            raise SpecError(f"cell {i} holds {value}, outside 0..{n}")
        require_instance("region_path", region_path, (str, type(None)))
        require_instance("source_name", source_name, str)
        if first_blank is not None:
            first_blank = as_ints("first_blank", first_blank)
            if len(first_blank) != 2:
                raise DimensionError(f"first_blank must be 2 ints, got {first_blank}")
        self._set(n, cells, region_path, source_name, first_blank)

    def givens(self) -> tuple[tuple[int, int], ...]:
        """Non-blank cells as (row-major 1-based index, value) pairs."""
        return tuple((i, v) for i, v in enumerate(self.cells, 1) if v)

    def assignment(self) -> Assignment:
        """The cells as an assignment; a blank raises PuzzleFormatError at its place."""
        if 0 in self.cells:
            raise PuzzleFormatError(
                "grid has blank cells, not a full assignment",
                *(self.first_blank or ()),
                source_name=self.source_name,
            )
        return Assignment(self.n, self.cells)


def _fail_for(text: str, source_name: str):
    """PuzzleFormatError bound to source_name, after checking both are str."""
    require_instance("text", text, str)
    require_instance("source_name", source_name, str)
    return partial(PuzzleFormatError, source_name=source_name)


def parse_puzzle(text: str, source_name: str = "<string>") -> PuzzleDocument:
    fail = _fail_for(text, source_name)
    lines = text.splitlines()
    if not lines:
        raise fail("empty input", 1)
    header = lines[0].split()
    if len(header) != 2 or header[0] != "n":
        raise fail(f"expected header 'n <n>', got {lines[0]!r}", 1)
    try:
        n = int(header[1])
    except ValueError:
        raise fail(f"grid size {header[1]!r} is not an integer", 1, 2)
    if n < 2:
        raise fail(f"grid size must be >= 2, got {n}", 1, 2)

    region_path = None
    row_start = 1
    if len(lines) > 1 and lines[1].split()[:1] == ["regions"]:
        parts = lines[1].split(maxsplit=1)
        if len(parts) != 2:
            raise fail("'regions' line is missing a path", 2)
        region_path = parts[1].strip()
        row_start = 2

    cells: list[int] = []
    for r in range(n):
        lineno = row_start + r + 1
        if lineno > len(lines):
            raise fail(f"expected {n} grid rows, found {r}", lineno)
        tokens = lines[lineno - 1].split()
        if len(tokens) != n:
            raise fail(f"expected {n} values, got {len(tokens)}", lineno)
        for c, token in enumerate(tokens, start=1):
            try:
                value = int(token)
            except ValueError:
                raise fail(f"value {token!r} is not an integer", lineno, c)
            if not 0 <= value <= n:
                raise fail(f"value {value} outside 0..{n}", lineno, c)
            cells.append(value)
    for lineno, line in enumerate(lines[row_start + n :], row_start + n + 1):
        if line.strip():
            raise fail("unexpected content after the grid", lineno)
    i = cells.index(0) if 0 in cells else None
    first_blank = None if i is None else (row_start + i // n + 1, i % n + 1)
    return PuzzleDocument(n, tuple(cells), region_path, source_name, first_blank)


def parse_dot_string(text: str, source_name: str = "<string>") -> PuzzleDocument:
    """81-character digit/'.' shorthand for 9x9 grids; '.' and '0' are blanks.

    The characters stand on one line of the text; positions are that line
    (numbered as ``str.splitlines`` splits, from 1) and the column in it.
    """
    fail = _fail_for(text, source_name)
    filled = [(i, line) for i, line in enumerate(text.splitlines(), 1) if line.strip()]
    if len(filled) > 1:
        message = f"expected 81 characters on one line, found {len(filled)} lines"
        raise fail(message, filled[0][0])
    lineno, line = filled[0] if filled else (1, "")
    compact = line.strip()
    if len(compact) != 81:
        raise fail(f"expected 81 characters, got {len(compact)}", lineno)
    start = len(line) - len(line.lstrip()) + 1
    cells: list[int] = []
    for column, ch in enumerate(compact, start):
        if ch in ".0":
            cells.append(0)
        elif ch.isdecimal():
            cells.append(int(ch))
        else:
            raise fail(f"character {ch!r} is not a digit or '.'", lineno, column)
    first_blank = (lineno, start + cells.index(0)) if 0 in cells else None
    return PuzzleDocument(9, tuple(cells), None, source_name, first_blank)


def parse_regions(text: str, source_name: str = "<string>") -> Partition:
    """Label grid -> partition; groups ordered by first appearance.

    A label past the n-th, or a label's cell past its n-th, raises
    PuzzleFormatError at that cell's line and column.  With neither, the n
    labels hold n cells each, so they partition the n^2 cells.
    """
    fail = _fail_for(text, source_name)
    rows = [(i, line) for i, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not rows:
        raise fail("empty region file", 1)
    n = len(rows)
    cells: dict[str, list[int]] = {}
    for r, (lineno, line) in enumerate(rows):
        tokens = line.split()
        if len(tokens) != n:
            raise fail(f"expected {n} labels, got {len(tokens)}", lineno)
        for c, label in enumerate(tokens, start=1):
            if label not in cells and len(cells) == n:
                message = f"label {label!r} starts region {n + 1}, expected {n} regions"
                raise fail(message, lineno, c)
            group = cells.setdefault(label, [])
            if len(group) == n:
                raise fail(f"label {label!r} holds more than {n} cells", lineno, c)
            group.append(r * n + c)
    return Partition(n, tuple(map(tuple, cells.values())))


def render_tableau(x: Assignment) -> str:
    """Row-major n x n text layout, one space-separated line per row."""
    require_instance("x", x, Assignment)
    n = x.n
    return "\n".join(
        " ".join(str(x.cells[r * n + c]) for c in range(n)) for r in range(n)
    )


def read_text(path: str | os.PathLike) -> tuple[str, str]:
    """A puzzle, solution or region file's text, decoded as UTF-8, and its name.

    The name is ``str(Path(path))``.  A path not a str or PathLike, or one
    whose ``__fspath__`` gives no str, raises InputTypeError; bytes not
    UTF-8, or a NUL in the name, PuzzleFormatError.
    """
    require_instance("path", path, (str, os.PathLike))
    if not isinstance(path, str):
        require_instance("path's __fspath__()", path.__fspath__(), str)
    name = str(path := Path(path))
    try:
        return path.read_text(encoding="utf-8"), name
    except ValueError as exc:
        raise PuzzleFormatError(str(exc), source_name=name) from exc


def load_regions(path: str | os.PathLike) -> Partition:
    """The partition in a region file; see ``parse_regions``."""
    return parse_regions(*read_text(path))


def load_puzzle(path: str | os.PathLike) -> PuzzleDocument:
    text, name = read_text(path)
    # One non-blank line that is not an 'n <n>' header is the 81-character form.
    filled = [line.split() for line in text.splitlines() if line.strip()]
    if len(filled) == 1 and filled[0][0] != "n":
        return parse_dot_string(text, name)
    return parse_puzzle(text, name)


def build_problem(doc: PuzzleDocument) -> ProblemSpec:
    """Pick constraints for a document.

    With a region file, found beside ``doc.source_name``: rows, columns and
    the regions.  Otherwise classic subsquares when n is a perfect square,
    else the Latin-square pair.
    """
    require_instance("doc", doc, PuzzleDocument)
    if doc.region_path is not None:
        # Joining drops the directory before an absolute region path.
        try:
            part = load_regions(Path(doc.source_name).parent / doc.region_path)
        except OSError as exc:  # at line 2, the only line 'regions' may stand on
            raise PuzzleFormatError(str(exc), 2, source_name=doc.source_name) from exc
        if part.n != doc.n:
            sizes = f"region grid is {part.n}x{part.n}, puzzle is {doc.n}x{doc.n}"
            raise PuzzleFormatError(sizes, 1, source_name=doc.source_name)
        return make_gerechte_spec(part, doc.givens())
    m = math.isqrt(doc.n)
    if m * m == doc.n and doc.n >= 4:
        return make_classic_spec(doc.n, doc.givens())
    return make_latin_spec(doc.n, doc.givens())


def load_problem(path: str | os.PathLike) -> ProblemSpec:
    return build_problem(load_puzzle(path))
