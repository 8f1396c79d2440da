"""Characterization of the model's ten value classes against dataclass twins.

Each class is compared with a ``dataclasses`` twin of the same name and
fields that this file declares: repr bytes, equality, hash, frozenness,
construction and defaults, ``__match_args__`` and the
``json.dumps(default=vars)`` bytes the CLI prints.  The package itself
does not import ``dataclasses``; only its tests do.
"""

import json
from dataclasses import field, make_dataclass

import pytest

from gensudoku import (
    Assignment,
    ConstraintMatrix,
    GivensReport,
    NecessityReport,
    Partition,
    Permutation,
    ProblemSpec,
    PuzzleDocument,
    SolveOutcome,
    VerificationResult,
    identity_permutation,
    transpose_permutation,
)

ID2, T2 = identity_permutation(2), transpose_permutation(2)
GRID = Assignment(2, (1, 2, 2, 1))

# class, twin fields, and two unequal positional argument tuples
CASES = [
    (Assignment, [("n", int), ("cells", tuple)], [(2, (1, 2, 2, 1)), (2, (2, 1, 1, 2))]),
    (
        ProblemSpec,
        [("n", int), ("constraints", tuple), ("givens", tuple, field(default=()))],
        [(2, (ID2,)), (2, (ID2, T2), ((1, 1),))],
    ),
    (
        NecessityReport,
        [
            ("constraint_id", int),
            ("holds", bool),
            ("reconstructed", tuple),
            ("first_violation", tuple),
            ("zero_rows", tuple),
        ],
        [(1, True, (1, 2, 2, 1), None, ()), (2, False, None, None, (1, 3))],
    ),
    (
        GivensReport,
        [("ok", bool), ("mismatch", tuple)],
        [(True, None), (False, (1, 1, 2, 1))],
    ),
    (
        ConstraintMatrix,
        [("n", int), ("column_count", int), ("rows", tuple)],
        [(2, 2, ((1, 2),)), (2, 4, ((1, 2), (3, 4)))],
    ),
    (Permutation, [("images", tuple)], [((1, 2, 3),), ((2, 1),)]),
    (
        Partition,
        [("n", int), ("groups", tuple)],
        [(2, ((1, 2), (3, 4))), (2, ((1, 3), (2, 4)))],
    ),
    (
        VerificationResult,
        [("ok", bool), ("clause", str), ("detail", str)],
        [(True, None, "all clauses hold"), (False, "range", "cell 1 holds 4, outside 1..3")],
    ),
    (
        SolveOutcome,
        [
            ("solutions", list, field(default_factory=list)),
            ("nodes_explored", int, field(default=0)),
            ("exhausted", bool, field(default=False)),
            ("diagnostics", list, field(default_factory=list)),
        ],
        [([GRID], 3, True, []), ([], 0, False, ["givens conflict"])],
    ),
    (
        PuzzleDocument,
        [
            ("n", int),
            ("cells", tuple),
            ("region_path", str, field(default=None)),
            ("source_name", str, field(default="<string>")),
            ("first_blank", tuple, field(default=None)),
        ],
        [(2, (1, 0, 0, 1), None, "p.txt", (2, 2)), (2, (1, 2, 2, 1), "r.txt")],
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
FROZEN = [case for case in CASES if case[0] is not SolveOutcome]


def twin_of(cls, fields):
    return make_dataclass(cls.__name__, fields, frozen=cls is not SolveOutcome)


def pairs(cls, fields, args):
    twin = twin_of(cls, fields)
    return [(cls(*a), twin(*a)) for a in args]


@pytest.mark.parametrize("cls,fields,args", CASES, ids=IDS)
def test_repr_bytes_match_the_twin(cls, fields, args):
    for value, twin in pairs(cls, fields, args):
        assert repr(value) == repr(twin)


def test_repr_names_each_field():
    assert repr(GRID) == "Assignment(n=2, cells=(1, 2, 2, 1))"


@pytest.mark.parametrize("cls,fields,args", CASES, ids=IDS)
def test_equality_matches_the_twin(cls, fields, args):
    (a, twin_a), (b, twin_b) = pairs(cls, fields, args)
    again = cls(*args[0])
    assert (a == again, a != again) == (True, False)
    assert (a == b, a != b) == (twin_a == twin_b, twin_a != twin_b) == (False, True)
    for other in (tuple(args[0]), None):
        assert (twin_a == other, twin_a != other) == (False, True)
    for other in (twin_a, tuple(args[0]), None):
        assert (a == other, a != other, other == a) == (False, True, False)
        assert a.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls,fields,args", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_hash_matches_the_twin(cls, fields, args):
    for value, twin in pairs(cls, fields, args):
        assert hash(value) == hash(twin)


def test_solve_outcome_is_unhashable():
    assert SolveOutcome.__hash__ is None
    with pytest.raises(TypeError):
        hash(SolveOutcome())


def test_cached_groups_stay_out_of_equality_and_hash():
    cached, fresh = ProblemSpec(2, (ID2, T2)), ProblemSpec(2, (ID2, T2))
    assert cached.compiled_groups and cached.distinct_groups
    assert "compiled_groups" in vars(cached) and "compiled_groups" not in vars(fresh)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)


@pytest.mark.parametrize("cls,fields,args", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_frozen_fields_cannot_be_assigned_or_deleted(cls, fields, args):
    for value, twin in pairs(cls, fields, args):
        for name in (*cls.__match_args__, "extra"):
            for obj in (value, twin):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert repr(value) == repr(twin)


def test_solve_outcome_fields_can_be_assigned_and_deleted():
    outcome = SolveOutcome()
    outcome.nodes_explored = 5
    outcome.solutions.append(GRID)
    assert outcome == SolveOutcome([GRID], 5)
    del outcome.diagnostics
    assert not hasattr(outcome, "diagnostics")


@pytest.mark.parametrize("cls,fields,args", CASES, ids=IDS)
def test_keyword_construction_matches_positional(cls, fields, args):
    for a in args:
        assert cls(**dict(zip(cls.__match_args__, a))) == cls(*a)


@pytest.mark.parametrize("cls,fields,args", CASES, ids=IDS)
def test_defaults_match_the_twin(cls, fields, args):
    required = [f[0] for f in fields if len(f) == 2]
    values = dict(zip(cls.__match_args__, args[0]))
    kept = [values[name] for name in required]
    assert repr(cls(*kept)) == repr(twin_of(cls, fields)(*kept))


def test_solve_outcome_lists_are_fresh_per_construction():
    first, second = SolveOutcome(), SolveOutcome()
    assert first.solutions == first.diagnostics == []
    assert first.solutions is not second.solutions
    assert first.diagnostics is not second.diagnostics


@pytest.mark.parametrize("cls,fields,args", CASES, ids=IDS)
def test_match_args_match_the_twin(cls, fields, args):
    assert cls.__match_args__ == twin_of(cls, fields).__match_args__


@pytest.mark.parametrize("cls,fields,args", CASES, ids=IDS)
def test_json_bytes_match_the_twin(cls, fields, args):
    for value, twin in pairs(cls, fields, args):
        assert json.dumps(value, default=vars) == json.dumps(twin, default=vars)
