"""Mutants of ``solve`` that the search digest's first draws must catch.

Each mutant is one exact snippet of a package module's source, which must
occur there once, and its replacement.  The mutated source is compiled into
a fresh module object with ``__package__ = "gensudoku"``, so its relative
imports bind the real sibling modules; nothing is written to disk and the
real package is untouched.  A mutant is caught when ``solve``'s outcomes on
the first ``DRAWS`` draws of the digest's family (``digest_draw``) differ
from the real module's, or when it raises the exception its entry records.
The unmutated source must reproduce the real outcomes, so a harness that
cannot tell modules apart cannot pass.  Every run is under ``time_bound``,
so a mutant that runs long fails rather than hangs.

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
from reference_data import DIGEST_SEED, digest_draw, outcome_record, time_bound

DRAWS = 200
SECONDS = 5

# name: (module, snippet, replacement, the rule it breaks, exception raised or None)
MUTANTS = {
    "lock partners from the subsquares only": (
        "problems",
        "hs &= group_bits[p.bit_length() - 1]",
        "hs &= group_bits[p.bit_length() - 1] & ~((1 << (len(groups) - n)) - 1)",
        "locked places",
        None,
    ),
    "slice decrement drops its borrow": (
        "problems",
        "slices[b], borrow = s ^ borrow, borrow & ~s",
        "slices[b], borrow = s ^ borrow, 0",
        "bit-sliced candidate counts",
        None,
    ),
    "stop decision without its dead test": (
        "problems",
        "mask = 0 if held < cells.bit_count() else 1 << put",
        "mask = 1 << put",
        "dead places beside a hidden single",
        ValueError,  # a negative shift where the value has no place
    ),
    "MRV ties broken towards the highest cell": (
        "problems",
        "cell = (fewest & -fewest).bit_length() - 1",
        "cell = fewest.bit_length() - 1",
        "MRV order",
        None,
    ),
    "placed cell's other values left unmarked": (
        "problems",
        "sv[w] |= own",
        "sv[w] |= 0",
        "stale (group, value) marks",
        None,
    ),
    "two-candidate ties with equal free peers sent to the highest cell": (
        "problems",
        "if degree >= most:",
        "if degree > most:",
        "the two-candidate tie rule",
        None,
    ),
    "the free-peer tie rule applied at every tie": (
        "problems",
        "if fewest != 1 << cell and cand[cell].bit_count() == 2:",
        "if fewest != 1 << cell:",
        "the two-candidate tie rule",
        None,
    ),
}


@cache
def draws():
    rng = random.Random(DIGEST_SEED)
    return tuple(digest_draw(rng) for _ in range(DRAWS))


def outcomes(solve):
    """Each draw's ``outcome_record``, in order."""
    return [outcome_record(solve(spec, cap=cap)) for spec, cap in draws()]


@cache
def real_outcomes():
    with time_bound(SECONDS):
        return outcomes(gensudoku.problems.solve)


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


def test_the_unmutated_source_reproduces_the_real_outcomes():
    module = compiled("problems", source_of("problems"))
    assert module.solve is not gensudoku.problems.solve
    with time_bound(SECONDS):
        assert outcomes(module.solve) == real_outcomes()


@pytest.mark.parametrize("name", MUTANTS)
def test_the_digest_draws_catch_the_mutant(name):
    module_name, snippet, replacement, _rule, raises = MUTANTS[name]
    source = source_of(module_name)
    count = source.count(snippet)
    assert count == 1, f"{name}: snippet occurs {count} times in {module_name}.py; re-aim it"
    module = compiled(module_name, source.replace(snippet, replacement))
    expected = real_outcomes()
    with time_bound(SECONDS):
        if raises is not None:
            with pytest.raises(raises):
                outcomes(module.solve)
            return
        assert outcomes(module.solve) != expected
