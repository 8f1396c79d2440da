import pytest

from gensudoku import (
    Assignment,
    DimensionError,
    InputTypeError,
    PuzzleDocument,
    PuzzleFormatError,
    SpecError,
    build_problem,
    load_problem,
    load_puzzle,
    make_latin_spec,
    parse_dot_string,
    parse_puzzle,
    parse_regions,
    render_tableau,
    solve,
)
from gensudoku.puzzle_io import load_regions
from reference_data import REGION3_GROUPS, X3

BLANK2 = (0, 2, 2, 1)


class FsPath:
    """A PathLike whose ``__fspath__`` returns the value it was built with."""

    def __init__(self, value):
        self.value = value

    def __fspath__(self):
        return self.value


class TestParsePuzzle:
    def test_minimal(self):
        doc = parse_puzzle("n 2\n1 0\n0 0\n")
        assert doc.n == 2
        assert doc.givens() == ((1, 1),)

    def test_empty_grid_has_no_givens(self):
        doc = parse_puzzle("n 9\n" + "\n".join(["0 " * 8 + "0"] * 9))
        assert doc.givens() == ()

    def test_solved_square(self):
        text = "n 3\n2 1 3\n3 2 1\n1 3 2\n"
        doc = parse_puzzle(text)
        assert doc.assignment().cells == X3

    def test_regions_line(self):
        doc = parse_puzzle("n 2\nregions part.txt\n0 0\n0 0\n")
        assert doc.region_path == "part.txt"

    def test_regions_line_without_a_path(self):
        with pytest.raises(PuzzleFormatError) as info:
            parse_puzzle("n 2\nregions\n0 0\n0 0\n")
        assert str(info.value) == "<string>: line 2: 'regions' line is missing a path"
        assert (info.value.line, info.value.column) == (2, None)

    def test_grid_size_below_two(self):
        with pytest.raises(PuzzleFormatError, match="grid size must be >= 2, got 1$") as info:
            parse_puzzle("n 1\n0\n")
        assert (info.value.line, info.value.column) == (1, 2)

    def test_grid_size_not_an_integer(self):
        with pytest.raises(PuzzleFormatError, match="grid size 'x' is not an integer$") as info:
            parse_puzzle("n x\n")
        assert (info.value.line, info.value.column) == (1, 2)

    def test_bad_header(self):
        with pytest.raises(PuzzleFormatError) as info:
            parse_puzzle("size 3\n")
        assert info.value.line == 1

    def test_wrong_row_width(self):
        with pytest.raises(PuzzleFormatError) as info:
            parse_puzzle("n 2\n1 0 0\n0 0\n")
        assert info.value.line == 2

    def test_value_out_of_range(self):
        with pytest.raises(PuzzleFormatError) as info:
            parse_puzzle("n 2\n3 0\n0 0\n")
        assert info.value.line == 2 and info.value.column == 1

    def test_non_integer_value(self):
        with pytest.raises(PuzzleFormatError) as info:
            parse_puzzle("n 2\n1 x\n0 0\n")
        assert info.value.column == 2

    def test_missing_rows(self):
        with pytest.raises(PuzzleFormatError):
            parse_puzzle("n 3\n0 0 0\n")

    def test_trailing_garbage(self):
        with pytest.raises(PuzzleFormatError):
            parse_puzzle("n 2\n0 0\n0 0\nextra\n")


class TestDotString:
    def test_blank_and_digit_cells(self):
        text = "53..7...." "6..195..." ".98....6." "8...6...3" "4..8.3..1" \
               "7...2...6" ".6....28." "...419..5" "....8..79"
        doc = parse_dot_string(text)
        assert doc.n == 9
        assert doc.cells[0] == 5
        assert doc.cells[2] == 0
        assert len(doc.givens()) == 30

    def test_wrong_length(self):
        with pytest.raises(PuzzleFormatError):
            parse_dot_string("123")

    def test_digit_that_is_not_decimal(self):
        # "²".isdigit() is true, but int("²") fails; "٣" is a decimal digit.
        with pytest.raises(PuzzleFormatError) as info:
            parse_dot_string("²" + "." * 80)
        assert (info.value.line, info.value.column) == (1, 1)
        assert parse_dot_string("٣" + "." * 80).cells[0] == 3

    def test_positions_are_the_line_and_column_in_the_text(self):
        with pytest.raises(PuzzleFormatError) as info:
            parse_dot_string("\n\n   " + "." * 40 + "x" + "." * 40)
        assert str(info.value) == (
            "<string>: line 3, column 44: character 'x' is not a digit or '.'"
        )
        doc = parse_dot_string("\n\n   " + "1" * 40 + "." * 41 + "  \n")
        assert doc.first_blank == (3, 44)

    def test_characters_on_more_than_one_line(self):
        # The first non-blank line is named; no line break is quoted as a cell.
        for text, line in (("12345\n" + "." * 75, 1), ("\n12345\n" + "." * 75, 2)):
            with pytest.raises(PuzzleFormatError) as info:
                parse_dot_string(text)
            assert str(info.value) == (
                f"<string>: line {line}: "
                "expected 81 characters on one line, found 2 lines"
            )


class TestParseRegions:
    def test_first_appearance_order(self):
        # c shows up at cell 3, before b at cell 5, so it is the second group.
        text = "a a c\na b c\nb b c\n"
        part = parse_regions(text)
        assert part.groups == ((1, 2, 4), (3, 6, 9), (5, 7, 8))

    def test_region_example_same_groups_as_reference(self):
        part = parse_regions("a a c\na b c\nb b c\n")
        assert {frozenset(g) for g in part.groups} == {
            frozenset(g) for g in REGION3_GROUPS
        }

    def test_uneven_rows_rejected(self):
        with pytest.raises(PuzzleFormatError):
            parse_regions("a a\na\n")

    def test_row_error_names_the_line_blank_lines_included(self):
        for text, line in (("a a\n\nb\n", 3), ("\n\na a\nb\n", 4)):
            with pytest.raises(PuzzleFormatError) as info:
                parse_regions(text)
            assert str(info.value) == f"<string>: line {line}: expected 2 labels, got 1"

    def test_blank_lines_do_not_shift_the_cells(self):
        assert parse_regions("\na a c\n\na b c\nb b c\n\n") == parse_regions(
            "a a c\na b c\nb b c\n"
        )

    def test_unbalanced_groups_rejected(self):
        # 'a' takes its third cell at line 2, column 2.
        with pytest.raises(PuzzleFormatError) as info:
            parse_regions("a a\nb a\n", source_name="r.txt")
        assert (info.value.line, info.value.column) == (2, 2)
        assert str(info.value) == "r.txt: line 2, column 2: label 'a' holds more than 2 cells"

    def test_label_past_the_nth_rejected_at_its_cell(self):
        text = "\na b c\n\nd a b\nc a b\n"  # blank lines are counted
        with pytest.raises(PuzzleFormatError) as info:
            parse_regions(text)
        assert (info.value.line, info.value.column) == (4, 1)
        assert "label 'd' starts region 4, expected 3 regions" in str(info.value)

    def test_five_cell_region_named_at_its_fifth_cell(self):
        text = "a a b b\na a b b\nc c d d\nc c c d\n"
        with pytest.raises(PuzzleFormatError) as info:
            parse_regions(text)
        assert (info.value.line, info.value.column) == (4, 3)


class TestRenderTableau:
    def test_example_square(self):
        assert render_tableau(Assignment(3, X3)) == "2 1 3\n3 2 1\n1 3 2"

    def test_n2(self):
        assert render_tableau(Assignment(2, (1, 2, 2, 1))) == "1 2\n2 1"

    def test_round_trip_on_solved_grids(self):
        solutions = solve(make_latin_spec(3)).solutions
        solutions += solve(make_latin_spec(2)).solutions
        for sol in solutions:
            text = f"n {sol.n}\n" + render_tableau(sol) + "\n"
            doc = parse_puzzle(text)
            assert doc.assignment().cells == sol.cells


class TestBuildProblem:
    def test_latin_for_non_square_n(self):
        doc = parse_puzzle("n 3\n0 0 0\n0 0 0\n0 0 0\n")
        spec = build_problem(doc)
        assert len(spec.constraints) == 3
        assert spec.constraints[1].images == spec.constraints[2].images

    def test_classic_for_square_n(self):
        doc = parse_puzzle("n 4\n" + "\n".join(["0 0 0 0"] * 4))
        spec = build_problem(doc)
        assert spec.constraints[2].images != spec.constraints[1].images

    def test_region_file_resolved_relative(self, tmp_path):
        (tmp_path / "part.txt").write_text("a a c\na b c\nb b c\n")
        puzzle = tmp_path / "puzzle.txt"
        puzzle.write_text("n 3\nregions part.txt\n2 1 3\n3 2 1\n1 3 2\n")
        doc, spec = parse_puzzle(puzzle.read_text()), load_problem(puzzle)
        assert doc.region_path == "part.txt"
        assert spec.constraints[2].images == (1, 2, 4, 3, 6, 9, 5, 7, 8)

    def test_region_size_mismatch(self, tmp_path):
        (tmp_path / "part.txt").write_text("a a\nb b\n")
        puzzle = tmp_path / "puzzle.txt"
        puzzle.write_text("n 3\nregions part.txt\n0 0 0\n0 0 0\n0 0 0\n")
        with pytest.raises(PuzzleFormatError):
            load_problem(puzzle)


class TestEntryTypes:
    @pytest.mark.parametrize("load", [load_puzzle, load_problem, load_regions])
    @pytest.mark.parametrize("path", [None, 3, ("p.txt",)])
    def test_load_needs_a_str_or_path(self, load, path):
        kind = type(path).__name__
        with pytest.raises(InputTypeError, match=f"path must be a str or PathLike, got {kind}$"):
            load(path)

    @pytest.mark.parametrize("load", [load_puzzle, load_problem, load_regions])
    @pytest.mark.parametrize("value", [b"p.txt", 3])
    def test_load_needs_a_path_that_gives_a_str(self, load, value):
        kind = type(value).__name__
        with pytest.raises(InputTypeError, match=rf"__fspath__\(\) must be a str, got {kind}$"):
            load(FsPath(value))

    @pytest.mark.parametrize("load", [load_puzzle, load_problem, load_regions])
    def test_missing_file_stays_an_os_error(self, load, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "missing.txt")

    def test_missing_region_file_is_a_format_error_at_line_2(self, tmp_path):
        puzzle = tmp_path / "p.txt"
        puzzle.write_text("n 2\nregions none.txt\n0 0\n0 0\n")
        with pytest.raises(PuzzleFormatError) as info:
            load_problem(puzzle)
        exc = info.value
        assert (exc.source_name, exc.line, exc.column) == (str(puzzle), 2, None)
        assert isinstance(exc.__cause__, FileNotFoundError)
        assert exc.__cause__.filename == str(tmp_path / "none.txt")

    @pytest.mark.parametrize("parse", [parse_puzzle, parse_dot_string, parse_regions])
    def test_parsers_need_str_text_and_source_name(self, parse):
        with pytest.raises(InputTypeError, match="text must be a str, got NoneType$"):
            parse(None)
        with pytest.raises(InputTypeError, match="source_name must be a str, got int$"):
            parse("", 3)

    def test_build_problem_needs_a_document_and_a_path(self, tmp_path, monkeypatch):
        with pytest.raises(InputTypeError, match="doc must be a PuzzleDocument, got NoneType$"):
            build_problem(None)
        text = "n 2\nregions part.txt\n0 0\n0 0\n"
        (tmp_path / "part.txt").write_text("a a\nb b\n")
        (tmp_path / "elsewhere").mkdir()
        # The region file is found beside the document's source, not in the
        # working directory.
        monkeypatch.chdir(tmp_path / "elsewhere")
        beside = build_problem(parse_puzzle(text, source_name=str(tmp_path / "p.txt")))
        # A document parsed from a string finds it in the working directory.
        monkeypatch.chdir(tmp_path)
        assert build_problem(parse_puzzle(text)) == beside
        assert beside.constraints[2].images == (1, 2, 3, 4)

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            (("3", (0,) * 9), InputTypeError, "n must be an int, got str"),
            ((3, None), InputTypeError, "cells must be iterable, got NoneType"),
            ((3, (0,) * 8 + ("1",)), InputTypeError, "cell 9 must be an int, got str"),
            ((9, (1, 2)), DimensionError, "expected 81 cells, got 2"),
            ((2, (0, 3, -1, 1)), SpecError, "cell 2 holds 3, outside 0..2"),
            ((3, (0,) * 9, 5), InputTypeError, "region_path must be a str or NoneType, got int"),
            ((2, BLANK2, None, None), InputTypeError, "source_name must be a str, got NoneType"),
            ((2, BLANK2, None, "p", 5), InputTypeError, "first_blank must be iterable, got int"),
            (
                (2, BLANK2, None, "p", ("1", 1)),
                InputTypeError,
                "every component of first_blank must be an int",
            ),
            (
                (2, BLANK2, None, "p", (1,)),
                DimensionError,
                r"first_blank must be 2 ints, got \(1,\)",
            ),
        ],
    )
    def test_document_checks_its_fields(self, fields, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            build_problem(PuzzleDocument(*fields))

    def test_a_document_with_a_blank_is_no_assignment(self):
        doc = PuzzleDocument(2, BLANK2, first_blank=(4, 1))
        with pytest.raises(PuzzleFormatError, match="^<string>: line 4, column 1: grid has"):
            doc.assignment()
        with pytest.raises(PuzzleFormatError, match="^<string>: grid has blank cells"):
            PuzzleDocument(2, BLANK2).assignment()
