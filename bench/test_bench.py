"""Self-tests of the benchmark: inputs, corpus, checker, tracer and budget.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import pytest

import tracing
from checker import Instance, Request, cli_fault, grid_fault, outcome_fault
from corpus import GERECHTE_4X4, SUDOKU_9X9
from inputs import WORKLOADS, _cells, _givens, make_round

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402  (needs src/ on the path for import_package)


def count_solutions(cells, limit=2):
    """Own 9x9 solver: up to ``limit`` solutions, most constrained cell first."""
    cells = list(cells)
    peers = [
        {
            j
            for j in range(81)
            if j != i
            and (j // 9 == i // 9 or j % 9 == i % 9 or (j // 27 == i // 27 and j % 9 // 3 == i % 9 // 3))
        }
        for i in range(81)
    ]
    found = []

    def options(i):
        return {1, 2, 3, 4, 5, 6, 7, 8, 9} - {cells[j] for j in peers[i]}

    def search():
        blanks = [i for i in range(81) if not cells[i]]
        if not blanks:
            found.append(tuple(cells))
            return
        i = min(blanks, key=lambda k: len(options(k)))
        for value in sorted(options(i)):
            cells[i] = value
            search()
            cells[i] = 0
            if len(found) >= limit:
                return

    search()
    return found


@pytest.mark.parametrize("label,puzzle,solution", SUDOKU_9X9)
def test_corpus_puzzle_is_unique_and_matches_its_solution(label, puzzle, solution):
    assert count_solutions(_cells(puzzle)) == [_cells(solution)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_seed_gives_the_same_inputs_twice(workload):
    assert make_round(workload, 7, 0) == make_round(workload, 7, 0)
    assert make_round(workload, 7, 1) == make_round(workload, 7, 1)
    assert make_round(workload, 7, 0) != make_round(workload, 8, 0)


@pytest.mark.parametrize("label,puzzle,solution", SUDOKU_9X9)
def test_checker_accepts_the_solution_and_rejects_corruptions(label, puzzle, solution):
    inst = Instance(label, "classic", 9, _givens(_cells(puzzle)))
    good = _cells(solution)
    assert grid_fault(inst, good) is None
    swapped = list(good)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert grid_fault(inst, swapped) is not None
    assert grid_fault(inst, good[:-1]) is not None
    assert grid_fault(inst, (0,) + good[1:]) is not None
    # A valid grid that breaks a given: relabel two digits everywhere.
    relabelled = tuple({1: 2, 2: 1}.get(v, v) for v in good)
    assert grid_fault(Instance(label, "classic", 9), relabelled) is None
    assert grid_fault(inst, relabelled) is not None


def test_solution_sets_are_compared_as_sets():
    latin2 = frozenset({(1, 2, 2, 1), (2, 1, 1, 2)})
    inst = Instance("latin-2x2", "latin", 2, solutions=latin2)
    assert outcome_fault(inst, [(1, 2, 2, 1), (2, 1, 1, 2)], True) is None
    assert outcome_fault(inst, [(2, 1, 1, 2), (1, 2, 2, 1)], True) is None
    assert outcome_fault(inst, [(1, 2, 2, 1)], True) is not None
    assert outcome_fault(inst, [(1, 2, 2, 1), (1, 2, 2, 1)], True) is not None
    assert outcome_fault(inst, [(1, 2, 2, 1), (2, 1, 1, 2)], False) is not None
    assert outcome_fault(inst, [(1, 1, 2, 2)], True) is not None


def test_cli_output_is_read_by_key():
    solution = _cells(SUDOKU_9X9[0][2])
    inst = Instance("fixture-1", "classic", 9, solutions=frozenset([solution]), cap=2)
    req = Request("solve-json", (), (), inst, solution, 0)
    out = '{"stats": {"nodes": 5}, "exhausted": true, "solutions": [{"cells": %s, "n": 9}]}' % list(solution)
    assert cli_fault(req, 0, out) is None
    assert cli_fault(req, 1, out) is not None
    assert cli_fault(req, 0, out.replace("true", "false")) is not None
    check = Request("check", (), (), inst, solution, 0)
    reports = ",".join('{"holds": true, "constraint_id": %d, "extra": null}' % k for k in (1, 2, 3))
    assert cli_fault(check, 0, f"[{reports}]") is None
    assert cli_fault(check, 0, f"[{reports.replace('true', 'false', 1)}]") is not None


def test_gerechte_solution_counts_do_not_depend_on_the_seed():
    def counts(seed):
        return [len(op.solutions) for op in make_round("enumerate", seed, 0) if op.family == "gerechte"]

    assert len(counts(1)) == len(GERECHTE_4X4)
    assert all(counts(1))
    assert counts(1) == counts(2) == counts(3)


def test_counters_repeat_for_a_fixed_seed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    pkg = run.import_package()
    tracer = tracing.Tracer()
    seen = []
    for _ in range(2):
        tracer.reset()
        tracer.install(count_permutation_calls=True)
        try:
            log = run.new_log()
            run.run_round(pkg, "cli-9x9", 5, 0, log)
        finally:
            tracer.uninstall()
        assert not log["faults"]
        seen.append((log["counters"], tracer.counts(), tracer.permutation_calls))
    assert seen[0] == seen[1]
    assert seen[0][2] > 0


def test_a_missing_name_is_recorded_absent(monkeypatch):
    pkg = run.import_package()
    solve = pkg.problems.solve
    targets = tracing.TARGETS + (("problems.gone", "gensudoku.problems", "reconstruct_everything", None),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gensudoku.problems.reconstruct_everything"]
    assert pkg.problems.solve is solve


def test_the_budget_stops_a_call_and_the_workload_stays_usable():
    def forever():
        while True:
            pass

    previous = signal.getsignal(signal.SIGALRM)
    assert run.run_budgeted(forever, 0.05) is None
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    pkg = run.import_package()
    empty25 = Instance("classic-25x25", "classic", 25, cap=1, selfcheck=False, budget_s=0.2)
    _, fault, counters = run.run_instance(pkg, empty25)
    assert fault is None and counters["overruns"] in (0, 1)
    latin = Instance("latin-8x8", "latin", 8, cap=1, selfcheck=False, budget_s=30.0)
    _, fault, counters = run.run_instance(pkg, latin)
    assert fault is None and counters == {"nodes": counters["nodes"], "solutions": 1, "candidates": 0, "overruns": 0}


def test_throughput_takes_each_operations_median_nominal_time():
    log = run.new_log()
    log["ops"] = [((0, 0), 10, 2.0), ((0, 1), 5, 1.0), ((0, 0), 10, 1.0), ((0, 1), 5, 3.0), ((0, 0), 10, 4.0)]
    assert run.nominal_throughput(log) == 15 / 4.0


def test_operation_times_are_scaled_by_the_reference_around_them(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    pkg = run.import_package()
    slow = iter([2 * run.REFERENCE_S] * 100)
    monkeypatch.setattr(run, "reference_s", lambda: next(slow))
    log = run.new_log(reference=True)
    run.run_round(pkg, "oracle", 5, 0, log)
    assert [s for _, _, s in log["ops"]] == pytest.approx([t / 2 for t in log["times"]])
