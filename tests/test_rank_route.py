"""Differential tests: the checkers' rank route against the matrix route.

``check_necessary``, ``check_givens`` and ``verify_solution`` rank each
compiled constraint group; the public matrix route (``build_constraint_matrix``,
``ConstraintMatrix.apply``, ``reconstruct``, ``gsgn``) and the matrix-free
``pairwise_sign_sum`` are the oracles they must agree with, field by field.
"""

import random

import pytest

from gensudoku import (
    Assignment,
    GivensReport,
    NecessityReport,
    NotApplicableError,
    Partition,
    ProblemSpec,
    build_constraint_matrix,
    check_givens,
    check_necessary,
    make_classic_spec,
    make_gerechte_spec,
    make_latin_spec,
    pairwise_sign_sum,
    reconstruct,
    solve,
    verify_solution,
)
from gensudoku.problems import _certificate

GRIDS_PER_SPEC = 60


def random_partition(rng, n):
    cells = list(range(1, n * n + 1))
    rng.shuffle(cells)
    return Partition(n, [sorted(cells[b * n : (b + 1) * n]) for b in range(n)])


def build_specs():
    rng = random.Random(20261017)
    specs = [(f"latin{n}", make_latin_spec(n)) for n in (2, 3, 5)]
    specs += [(f"classic{n}", make_classic_spec(n)) for n in (4, 9)]
    for n in (3, 4):
        for k in range(2):
            specs.append((f"gerechte{n}-{k}", make_gerechte_spec(random_partition(rng, n))))
    return specs


SPECS = build_specs()


def sample_grids(rng, spec):
    """In-range, out-of-range and duplicate-holding grids for one spec."""
    n = spec.n
    size = n * n
    found = solve(spec, cap=3).solutions
    for _ in range(GRIDS_PER_SPEC):
        kind = rng.randrange(5)
        if kind == 0 or not found:
            cells = [rng.randint(1, n) for _ in range(size)]
        elif kind == 1:
            cells = [rng.randint(-2, n + 3) for _ in range(size)]
        else:
            cells = list(rng.choice(found).cells)
            if kind == 2:  # distinct per group, outside 1..n
                scale, shift = rng.choice(((1, 0), (3, -1), (-1, n + 1), (2, 5)))
                cells = [scale * v + shift for v in cells]
            elif kind == 3:  # one duplicate
                cells[rng.randrange(size)] = cells[rng.randrange(size)]
            else:  # one swap
                i, j = rng.randrange(size), rng.randrange(size)
                cells[i], cells[j] = cells[j], cells[i]
        givens = []
        for cell in rng.sample(range(1, size + 1), rng.randrange(4)):
            value = cells[cell - 1]
            givens.append((cell, value if 1 <= value <= n else rng.randint(1, n)))
        yield ProblemSpec(n, spec.constraints, tuple(givens)), Assignment(n, tuple(cells))


def in_range(x):
    return all(1 <= v <= x.n for v in x.cells)


def matrix_reports(spec, x):
    reports = []
    for constraint_id, perm in enumerate(spec.constraints, start=1):
        matrix = build_constraint_matrix(spec.n, perm)
        diffs = matrix.apply(x.cells)
        zero_rows = tuple(r for r, v in enumerate(diffs, start=1) if v == 0)
        if zero_rows:
            reports.append(NecessityReport(constraint_id, False, None, None, zero_rows))
            continue
        rec = reconstruct(matrix, x.cells)
        violation = next(
            ((i, e, a) for i, (e, a) in enumerate(zip(rec, x.cells), start=1) if e != a),
            None,
        )
        reports.append(NecessityReport(constraint_id, violation is None, rec, violation, ()))
    return reports


def matrix_givens(spec, x):
    for constraint_id, matrix in enumerate(spec.constraint_matrices(), start=1):
        rec = reconstruct(matrix, x.cells)  # gsgn raises at the first vanishing row
        for cell, given in spec.givens:
            if rec[cell - 1] != given:
                return GivensReport(False, (constraint_id, cell, given, rec[cell - 1]))
    return GivensReport(True, None)


def givens_outcome(checker, spec, x):
    try:
        return checker(spec, x)
    except NotApplicableError as exc:
        return ("not applicable", exc.index)


@pytest.mark.parametrize("name,base", SPECS, ids=[name for name, _ in SPECS])
def test_rank_route_matches_matrix_route(name, base):
    rng = random.Random(name)
    n = base.n
    for spec, x in sample_grids(rng, base):
        reports = check_necessary(spec, x)
        assert reports == matrix_reports(spec, x)

        matrices = spec.constraint_matrices()
        first_zero = next(
            (
                (constraint_id, row)
                for constraint_id, matrix in enumerate(matrices, start=1)
                for row, v in enumerate(matrix.apply(x.cells), start=1)
                if v == 0
            ),
            None,
        )
        result = verify_solution(spec, x)
        if in_range(x) and first_zero is not None:
            constraint_id, row = first_zero
            assert result.clause == "constraint"
            assert result.detail == f"constraint {constraint_id}, row {row}: zero difference"
        elif in_range(x):
            assert result.clause in (None, "given")
        else:
            assert result.clause == "range"

        assert givens_outcome(check_givens, spec, x) == givens_outcome(
            matrix_givens, spec, x
        )
        # The defining system must imply the identity and the givens check,
        # and solve's one-pass certificate must accept exactly what it does.
        if result.ok:
            assert all(r.holds for r in reports)
            assert check_givens(spec, x).ok
        if min(x.cells) >= 0:
            assert (_certificate(spec)([1 << v for v in x.cells]) is None) == result.ok

        for report, groups in zip(reports, spec.constraint_groups()):
            if report.reconstructed is None:
                continue
            for group in groups:
                values = [x.cells[c - 1] for c in group]
                for i, cell in enumerate(group, start=1):
                    pairwise = pairwise_sign_sum(values, i)
                    assert report.reconstructed[cell - 1] == (pairwise + n + 1) // 2


def test_samples_reach_every_branch():
    """The sampled grids hit each outcome the comparison above must cover."""
    seen = set()
    for name, base in SPECS:
        for spec, x in sample_grids(random.Random(name), base):
            for report in check_necessary(spec, x):
                if report.zero_rows:
                    seen.add("zero rows")
                elif report.holds:
                    seen.add("holds")
                else:
                    seen.add("violation")
            if not in_range(x):
                seen.add("out of range")
            if spec.givens and verify_solution(spec, x).ok:
                seen.add("verified with givens")
            outcome = givens_outcome(check_givens, spec, x)
            if isinstance(outcome, tuple):
                seen.add("givens not applicable")
            elif not outcome.ok:
                seen.add("givens mismatch")
    assert seen == {
        "zero rows",
        "holds",
        "violation",
        "out of range",
        "givens not applicable",
        "givens mismatch",
        "verified with givens",
    }
