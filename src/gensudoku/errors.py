"""Exception types shared across the package, the type checks that raise one,
and ``Record``, the base of the model's value classes."""


class GenSudokuError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GenSudokuError, ValueError):
    """A vector length does not match what the operation expects."""


class InvalidPermutationError(GenSudokuError, ValueError):
    """An image sequence is not a bijection on {1, ..., size}."""


class InvalidPartitionError(GenSudokuError, ValueError):
    """A cell partition is malformed; ``cell`` is the first offending cell."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class NotApplicableError(GenSudokuError):
    """The sign of a vector with a zero component was requested.

    A zero component means two cells tied to the same constraint group hold
    equal values, so the distinctness condition is violated.  ``index`` is
    the 1-based position of the offending component.
    """

    def __init__(self, index):
        super().__init__(f"zero component at index {index}")
        self.index = index


class ParityError(GenSudokuError):
    """Reconstruction hit an odd intermediate component at 1-based ``index``.

    A component is n + 1 plus a +-1 sign per row holding its column, so the
    matrices ``build_difference_matrix`` and ``build_constraint_matrix`` build
    (n - 1 rows per column) never reach this; a hand-built matrix does when a
    column's row count has the other parity.
    """

    def __init__(self, index, value):
        super().__init__(f"odd component {value} at index {index}")
        self.index = index
        self.value = value


class SpecError(GenSudokuError, ValueError):
    """A problem or matrix was asked for with a size or givens out of range."""


class InputTypeError(GenSudokuError, TypeError):
    """An argument is of the wrong type: an int field holding another type
    (``bool`` included), or a value that is not the sequence asked for."""


class PuzzleFormatError(GenSudokuError, ValueError):
    """Malformed or unreadable puzzle or region file.

    Carries the source and the 1-based position; ``line`` is None when the
    file could not be read at all.
    """

    def __init__(self, message, line=None, column=None, source_name=None):
        where = [] if source_name is None else [source_name]
        if line is not None:
            column_part = "" if column is None else f", column {column}"
            where.append(f"line {line}{column_part}")
        super().__init__(": ".join(where + [message]))
        self.line = line
        self.column = column
        self.source_name = source_name


class SearchSpaceError(GenSudokuError, ValueError):
    """A search refused past a bound: ``brute_force``'s candidate fill-ins, or
    the solutions of the CLI's ``solve`` past ``OUTPUT_LIMIT`` entries."""


class InvalidCapError(GenSudokuError, ValueError):
    """A solution cap that is not an int (``bool`` included) or is below 1."""


class SelfCheckError(GenSudokuError):
    """A solution emitted by the search failed its own re-check.

    ``grid`` is the offending assignment.  This signals a fault in the
    program, not in its input.
    """

    def __init__(self, message, grid):
        super().__init__(message)
        self.grid = grid


def require_int(what: str, value) -> None:
    """Raise InputTypeError unless ``value`` is an int (a ``bool`` is not)."""
    if type(value) is not int:
        raise InputTypeError(f"{what} must be an int, got {type(value).__name__}")


def require_instance(what: str, value, cls: type | tuple[type, ...]) -> None:
    """Raise InputTypeError unless ``value`` is a ``cls`` (or one of a tuple's)."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in cls) if type(cls) is tuple else cls.__name__
        raise InputTypeError(f"{what} must be a {names}, got {type(value).__name__}")


def as_tuple(what: str, items) -> tuple:
    """``tuple(items)``, or InputTypeError when ``items`` is not iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise InputTypeError(
            f"{what} must be iterable, got {type(items).__name__}"
        ) from None


def as_ints(what: str, items) -> tuple[int, ...]:
    """``tuple(items)``, or InputTypeError unless it is an iterable of ints."""
    items = as_tuple(what, items)
    if not {int}.issuperset(map(type, items)):
        raise InputTypeError(f"every component of {what} must be an int")
    return items


def as_tuples(what: str, rows) -> tuple[tuple, ...]:
    """``rows`` and each row as tuples, or InputTypeError when one is not iterable."""
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        raise InputTypeError(f"{what} must be an iterable of iterables") from None


class Record:
    """A value whose ``__init__`` checks its fields, then stores them in ``__match_args__``
    order with ``_set``.  ``==`` (same class only), hash and repr read those fields
    alone, not ``__dict__``; setting or deleting an attribute raises AttributeError."""

    def _set(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
