"""Mutants of ``solve`` and ``brute_force`` that fixed inputs must catch.

Each mutant is one exact snippet of a package module's source, which must
occur there once, and its replacement.  The mutated source is compiled into
a fresh module object with ``__package__ = "gensudoku"``, so its relative
imports bind the real sibling modules; nothing is written to disk and the
real package is untouched.  A mutant is caught when its function's outcomes
differ from the real module's, or when it raises the exception its entry
records: ``solve``'s on the first ``DRAWS`` draws of the digest's family
(``digest_draw``), ``brute_force``'s on ``BRUTE_FORCE_SPECS``.  The
unmutated source must reproduce the real outcomes of both, so a harness
that cannot tell modules apart cannot pass.  Every run is under
``time_bound``, so a mutant that runs long fails rather than hangs.

When the code moves, a snippet that no longer occurs exactly once fails its
test by name: re-aim the mutant at the new code, do not drop it.
"""

import importlib
import random
import types
from functools import cache
from pathlib import Path

import pytest

import gensudoku.problems
from gensudoku import Partition, make_gerechte_spec, make_latin_spec
from reference_data import DIGEST_SEED, REGION3_GROUPS, digest_draw, outcome_record, time_bound

DRAWS = 200
SECONDS = 5

# name: (module, function, snippet, replacement, the rule it breaks,
#        exception raised or None)
MUTANTS = {
    "lock partners from the subsquares only": (
        "problems",
        "solve",
        "hs &= group_bits[p.bit_length() - 1]",
        "hs &= group_bits[p.bit_length() - 1] & ~((1 << (len(groups) - n)) - 1)",
        "locked places",
        None,
    ),
    "slice decrement drops its borrow": (
        "problems",
        "solve",
        "slices[b], borrow = s ^ borrow, borrow & ~s",
        "slices[b], borrow = s ^ borrow, 0",
        "bit-sliced candidate counts",
        None,
    ),
    "stop decision without its dead test": (
        "problems",
        "solve",
        "mask = 0 if held < cells.bit_count() else 1 << put",
        "mask = 1 << put",
        "dead places beside a hidden single",
        ValueError,  # a negative shift where the value has no place
    ),
    "MRV ties broken towards the highest cell": (
        "problems",
        "solve",
        "cell = (fewest & -fewest).bit_length() - 1",
        "cell = fewest.bit_length() - 1",
        "MRV order",
        None,
    ),
    "placed cell's other values left unmarked": (
        "problems",
        "solve",
        "sv[w] |= own",
        "sv[w] |= 0",
        "stale (group, value) marks",
        None,
    ),
    "two-candidate ties with equal free peers sent to the highest cell": (
        "problems",
        "solve",
        "if degree >= most:",
        "if degree > most:",
        "the two-candidate tie rule",
        None,
    ),
    "the free-peer tie rule applied at every tie": (
        "problems",
        "solve",
        "if fewest != 1 << cell and cand[cell].bit_count() == 2:",
        "if fewest != 1 << cell:",
        "the two-candidate tie rule",
        None,
    ),
    "brute_force's enumeration ignores the givens": (
        "problems",
        "brute_force",
        "given_map = dict(problem.givens)",
        "given_map = {}",
        "givens fix their cells' fill-ins",
        None,
    ),
    "the certificate passes any group that holds a value": (
        "problems",
        "brute_force",
        "if seen != full:",
        "if not seen:",
        "a group holds a permutation of 1..n",
        None,
    ),
}


# Small specs that brute_force enumerates whole: empty, with a row given,
# with two givens in one column (no solution), and a gerechte 3x3.
BRUTE_FORCE_SPECS = (
    make_latin_spec(2),
    make_latin_spec(3),
    make_latin_spec(3, givens=((1, 1), (2, 2), (3, 3))),
    make_latin_spec(3, givens=((1, 1), (4, 1))),
    make_gerechte_spec(Partition(3, REGION3_GROUPS)),
)


@cache
def runs(function):
    """The (spec, keyword arguments) that ``function``'s mutants are checked on."""
    if function == "brute_force":
        return tuple((spec, {}) for spec in BRUTE_FORCE_SPECS)
    rng = random.Random(DIGEST_SEED)
    return tuple((spec, {"cap": cap}) for spec, cap in (digest_draw(rng) for _ in range(DRAWS)))


def outcomes(module, function):
    """Each run's ``outcome_record`` from ``module.function``, in order."""
    run = getattr(module, function)
    return [outcome_record(run(spec, **options)) for spec, options in runs(function)]


@cache
def real_outcomes(function):
    with time_bound(SECONDS):
        return outcomes(gensudoku.problems, function)


def compiled(name, source):
    """A fresh module object run from ``source`` in place of gensudoku.<name>."""
    real = importlib.import_module(f"gensudoku.{name}")
    module = types.ModuleType(real.__name__)
    module.__package__ = "gensudoku"
    module.__file__ = real.__file__
    exec(compile(source, real.__file__, "exec"), module.__dict__)
    return module


def source_of(name):
    return Path(importlib.import_module(f"gensudoku.{name}").__file__).read_text(encoding="utf-8")


def mutants_of(function):
    return [name for name, entry in MUTANTS.items() if entry[1] == function]


def test_the_unmutated_source_reproduces_the_real_outcomes():
    module = compiled("problems", source_of("problems"))
    for function in ("solve", "brute_force"):
        assert getattr(module, function) is not getattr(gensudoku.problems, function)
        with time_bound(SECONDS):
            assert outcomes(module, function) == real_outcomes(function)


def assert_caught(name):
    module_name, function, snippet, replacement, _rule, raises = MUTANTS[name]
    source = source_of(module_name)
    count = source.count(snippet)
    assert count == 1, f"{name}: snippet occurs {count} times in {module_name}.py; re-aim it"
    module = compiled(module_name, source.replace(snippet, replacement))
    expected = real_outcomes(function)
    with time_bound(SECONDS):
        if raises is not None:
            with pytest.raises(raises):
                outcomes(module, function)
            return
        assert outcomes(module, function) != expected


@pytest.mark.parametrize("name", mutants_of("solve"))
def test_the_digest_draws_catch_the_mutant(name):
    assert_caught(name)


@pytest.mark.parametrize("name", mutants_of("brute_force"))
def test_the_fixed_specs_catch_the_brute_force_mutant(name):
    assert_caught(name)
