"""Independent checker for everything the benchmark asks the package to do.

Nothing here imports the package under test.  A grid is valid when every
value lies in 1..n, every constraint group holds n distinct values (checked
with sets) and every given is kept.  The groups come from the benchmark's own
description of an instance (rows, columns, and boxes or regions), not from
the package's permutations.  Solution lists are compared as sets, so a
change of search order is not a fault.  CLI JSON is read by key, so added
fields are ignored.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Instance:
    """One problem as the benchmark states it.

    ``givens`` are (1-based cell, value) pairs; ``regions`` (gerechte only)
    lists each region's 1-based cells in ascending order.  ``solutions`` is
    the exact expected solution set, or None when any valid grid will do.
    ``work`` is the instance's unit count for throughput: its number of
    candidates for the brute-force oracle, 1 otherwise.
    """

    label: str
    family: str  # "classic", "latin" or "gerechte"
    n: int
    givens: tuple[tuple[int, int], ...] = ()
    regions: tuple[tuple[int, ...], ...] = ()
    solutions: Optional[frozenset] = None
    cap: Optional[int] = None
    selfcheck: bool = True
    budget_s: Optional[float] = None
    oracle: bool = False
    work: int = 1


def constraint_families(inst: Instance) -> list[list[tuple[int, ...]]]:
    """Per constraint family, its groups of 0-based cells.

    Rows, columns, then boxes (classic) or regions (gerechte); Latin
    squares have rows and columns only.
    """
    n = inst.n
    rows = [tuple(range(r * n, r * n + n)) for r in range(n)]
    cols = [tuple(range(c, n * n, n)) for c in range(n)]
    families = [rows, cols]
    if inst.family == "classic":
        m = math.isqrt(n)
        families.append(
            [
                tuple(
                    (br * m + i) * n + bc * m + j for i in range(m) for j in range(m)
                )
                for br in range(m)
                for bc in range(m)
            ]
        )
    elif inst.family == "gerechte":
        families.append([tuple(c - 1 for c in region) for region in inst.regions])
    return families


def family_holds(inst: Instance, cells) -> list[bool]:
    """Per constraint family: do all its groups hold n distinct values?"""
    n = inst.n
    return [
        all(len({cells[i] for i in group}) == n for group in family)
        for family in constraint_families(inst)
    ]


def grid_fault(inst: Instance, cells) -> Optional[str]:
    """Why ``cells`` is not a solution of ``inst``, or None when it is."""
    n = inst.n
    if len(cells) != n * n:
        return f"{len(cells)} cells, expected {n * n}"
    bad = next((i for i, v in enumerate(cells) if not 1 <= v <= n), None)
    if bad is not None:
        return f"cell {bad + 1} holds {cells[bad]}, outside 1..{n}"
    for k, holds in enumerate(family_holds(inst, cells), start=1):
        if not holds:
            return f"constraint family {k} has a repeated value"
    for cell, value in inst.givens:
        if cells[cell - 1] != value:
            return f"cell {cell} holds {cells[cell - 1]}, given is {value}"
    return None


def outcome_fault(inst: Instance, grids: list, exhausted: bool) -> Optional[str]:
    """Check a solver's solution list and completeness flag against ``inst``."""
    for grid in grids:
        fault = grid_fault(inst, grid)
        if fault is not None:
            return f"invalid solution: {fault}"
    found = set(grids)
    if len(found) != len(grids):
        return "duplicate solutions"
    if inst.solutions is None:
        if len(grids) != inst.cap:
            return f"{len(grids)} solutions, expected {inst.cap}"
        return None
    if not found <= inst.solutions:
        return "a solution outside the expected set"
    complete = inst.cap is None or len(inst.solutions) < inst.cap
    if complete:
        if len(found) != len(inst.solutions):
            return f"{len(found)} solutions, expected {len(inst.solutions)}"
        if not exhausted:
            return "search not exhausted"
    elif len(found) != inst.cap:
        return f"{len(found)} solutions, expected the cap {inst.cap}"
    return None


@dataclass(frozen=True)
class Request:
    """One CLI request: argv, the files it reads, and what it must give.

    ``grid`` is the expected solution (solve) or the submitted grid (check,
    verify).  File names in ``argv`` are relative to the work directory.
    """

    label: str  # solve-json, solve-text, check, verify or malformed
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]
    instance: Instance
    grid: Optional[tuple[int, ...]]
    exit_code: int


def _json_document(out: str):
    try:
        return json.loads(out)
    except ValueError:
        lines = [line for line in out.splitlines() if line.strip()]
        return json.loads(lines[-1])


def _text_solutions(out: str, n: int) -> tuple[list, bool]:
    lines = out.splitlines()
    grids = []
    for k, line in enumerate(lines):
        if re.fullmatch(r"solution \d+", line.strip()):
            rows = lines[k + 1 : k + 1 + n]
            grids.append(tuple(int(v) for row in rows for v in row.split()))
    summary = re.search(r"exhausted (true|false)", out)
    return grids, bool(summary) and summary.group(1) == "true"


def cli_fault(req: Request, code, out: str) -> Optional[str]:
    """Check one CLI request's exit code and standard output."""
    if code != req.exit_code:
        return f"exit code {code}, expected {req.exit_code}"
    inst = req.instance
    try:
        if req.label == "solve-json":
            doc = _json_document(out)
            grids = [tuple(s["cells"]) for s in doc["solutions"]]
            return outcome_fault(inst, grids, doc["exhausted"])
        if req.label == "solve-text":
            grids, exhausted = _text_solutions(out, inst.n)
            return outcome_fault(inst, grids, exhausted)
        if req.label == "check":
            reports = _json_document(out)
            got = {r["constraint_id"]: r["holds"] for r in reports}
            expected = dict(enumerate(family_holds(inst, req.grid), start=1))
            if got != expected:
                return f"constraint report {got}, expected {expected}"
        if req.label == "verify" and "VIOLATION" not in out:
            return "no violation reported"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None
