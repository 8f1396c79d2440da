"""Verification, backtracking solver, brute-force oracle and canonical constructors.

A problem (``ProblemSpec``, defined beside ``Assignment`` in ``condition``)
ties together the grid size n, an ordered list of cell permutations (each
inducing one permuted block constraint matrix) and the given cells.  The
canonical constructors emit the usual triples: rows / columns / subsquares
for classic puzzles, rows / columns / regions for gerechte variants, and
rows / columns / columns for Latin squares.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, product

# check_givens, check_necessary and build_constraint_matrix are not called
# here; bench/tracing.py looks them up.
from .condition import (
    Assignment,
    ProblemSpec,
    _checked_cells,
    check_givens,
    check_necessary,
)
from .errors import (
    InvalidCapError,
    Record,
    SearchSpaceError,
    SelfCheckError,
    SpecError,
    require_instance,
    require_int,
)
from .matrices import build_constraint_matrix, vanishing_rows
from .permutations import (
    Partition,
    block_permutation,
    identity_permutation,
    partition_permutation,
    transpose_permutation,
)

BRUTE_FORCE_LIMIT = 10**8


class VerificationResult(Record):
    """First failed clause of the defining system, if any.

    ``clause`` is one of 'range', 'constraint', 'given' or None when ok.
    """

    __match_args__ = ("ok", "clause", "detail")

    def __init__(self, ok: bool, clause: str | None, detail: str):
        self._set(ok, clause, detail)


def verify_solution(problem: ProblemSpec, x: Assignment) -> VerificationResult:
    """Whether x solves the problem, and if not, its first failed clause.

    Raises InputTypeError when problem is not a ProblemSpec or x not an
    Assignment, DimensionError when x has the wrong length.  Range is
    checked first; then the certificate (``_certificate``) decides and
    names the failing clause, a group by its first (constraint, block).
    """
    cells = _checked_cells(problem, x)
    n = problem.n
    for i, value in enumerate(cells, start=1):
        if not 1 <= value <= n:
            return VerificationResult(
                False, "range", f"cell {i} holds {value}, outside 1..{n}"
            )
    fault = _certificate(problem)([1 << value for value in cells])
    if fault is None:
        return VerificationResult(True, None, "all clauses hold")
    groups = problem.distinct_groups
    if fault < len(groups):
        group = groups[fault]
        every = list(chain.from_iterable(problem.compiled_groups))
        constraint, block = divmod(every.index(group), n)
        zero_row = next(vanishing_rows([cells[c] for c in group], block))
        detail = f"constraint {constraint + 1}, row {zero_row}: zero difference"
        return VerificationResult(False, "constraint", detail)
    cell, value = problem.givens[fault - len(groups)]
    detail = f"cell {cell} holds {cells[cell - 1]}, given is {value}"
    return VerificationResult(False, "given", detail)


class SolveOutcome(Record):
    """Solutions found (up to a cap), node count, and completeness flag; mutable, so
    unhashable.  ``solutions`` and ``diagnostics`` are new empty lists by default."""

    __match_args__ = ("solutions", "nodes_explored", "exhausted", "diagnostics")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, solutions=None, nodes_explored=0, exhausted=False, diagnostics=None):
        solutions = [] if solutions is None else solutions
        self._set(solutions, nodes_explored, exhausted, [] if diagnostics is None else diagnostics)


def _certificate(problem: ProblemSpec) -> Callable[[Sequence[int]], int | None]:
    """The problem's ``first_fault(bits)``, built once: a grid's first failed clause or None.

    ``bits[i]`` is ``1 << value`` of cell i.  A group of n cells holds a
    permutation of 1..n exactly when the OR of its bits is bits 1..n; a value
    of 0 or above n sets a bit outside them (a negative one cannot be shifted,
    so callers pass values >= 0).  Such a group has no zero difference and, by
    ``sign_sum_closed_form``, reconstructs to itself.  Then the givens must
    stand.  A fault is distinct group k, or given k - len(distinct_groups).
    ``first_fault`` reads ``bits`` and keeps no reference to it, so a caller
    may go on writing the list it passed.
    """
    full = ((1 << problem.n) - 1) << 1
    groups = problem.distinct_groups
    givens = problem.givens

    def first_fault(bits: Sequence[int]) -> int | None:
        for group in groups:
            seen = 0
            for cell in group:
                seen |= bits[cell]
            if seen != full:
                return groups.index(group)  # found only on failure: no index per grid
        for k, (cell, value) in enumerate(givens, len(groups)):
            if bits[cell - 1] != 1 << value:
                return k
        return None

    return first_fault


def solve(
    problem: ProblemSpec,
    cap: int | None = None,
    selfcheck: bool = True,
) -> SolveOutcome:
    """Depth-first backtracking search on an explicit stack, deterministic order.

    The search is one loop, not recursion, so its depth is not bounded by
    the interpreter's recursion limit.  A node with a free cell that has no
    candidate is a dead end; else it takes the lowest free cell with one.
    Failing both, a pass over (group, value) pairs stops at the first group
    in order with a value no free cell there can take (a dead end) or that
    only one can take (placed there).  When the places of v in group g all
    lie in another group h, the pass takes v from h's other cells at once
    (locked places), which may leave a cell with one candidate or none; as h
    it tries only the groups holding both the first and the last place.
    Failing all of these, the free cell with the fewest candidates, lowest
    index on ties, is branched on, values ascending.  It is read off
    ``n.bit_length()`` bit slices of the free cells' candidate counts, from
    the top slice down; the slices are brought up to date only there, by a
    bit-sliced decrement per frame pushed since the last branch node, and a
    backtrack takes back the slices its branch node saw.  Per value, a bit
    plane holds the free cells that can take it, so a (group, value) place
    count is one AND, and only pairs whose places changed since they last
    had two or more are counted; a value's walk clears its marks below where
    it ends, at once.  So a missing pair with no stale mark has two or more
    places: every change of places marks it, and a backtrack resumes only at
    a branch node whose pass left nothing stale.  The pass walks its stop
    group for every lower value, and a later value's locked step changes
    only that value's plane, so the value it stops at is the group's lowest
    with at most one place.  Four walks over set bits are the search order
    and take the lowest bit first: the pass's walk over stale groups (it
    stops at the lowest), the low cell, the MRV cell and the value tried;
    another order there changes the nodes.  Every other bit loop only ORs
    into the state or takes a max, so its order cannot change the result, and
    it takes the top bit, which needs fewer big-int operations.  The search stops at the cap or when its stack empties, and
    builds its outcome at that one exit.  It keeps ``onehot[i] = 1 <<
    values[i]``, stale at a freed cell until the cell is placed again, as
    ``values`` is; at a full grid it certifies that list (``_certificate``,
    built once).  A grid that fails raises SelfCheckError with the grid it
    certified, read off ``onehot`` and worded by ``verify_solution``.
    ``selfcheck`` is accepted and ignored.  A ``cap`` that is not an int, or
    is below 1, raises InvalidCapError; a ``problem`` that is not a
    ProblemSpec, InputTypeError.
    """
    require_instance("problem", problem, ProblemSpec)
    if cap is not None:
        if type(cap) is not int:
            raise InvalidCapError(f"cap must be an int, got {type(cap).__name__}")
        if cap < 1:
            raise InvalidCapError(f"cap must be >= 1, got {cap}")
    n = problem.n
    total = n * n
    full = ((1 << n) - 1) << 1  # bits 1..n
    groups = problem.distinct_groups
    values = [0] * total  # stale at a freed cell until it is placed again
    for cell, value in problem.givens:
        values[cell - 1] = value
    # One sweep over the groups, in constraint order, masks each group's
    # cells and each cell's groups, stops at the first group holding a value
    # twice, and takes each group's givens from its cells' candidates.
    gmask = []
    group_bits = [0] * total
    peers = [0] * total  # the cells sharing a group with cell i, i among them
    cand = [full] * total  # candidate mask per cell, kept while it is filled
    # A (group, value) pair with at most span places is looked at closely:
    # fewer than two end the pass, and more may lie in another group, which
    # takes no more than the most cells two groups share.
    span = 1
    for gid, group in enumerate(groups):
        gbit = 1 << gid
        mask = used = seen = twice = 0
        for cell in group:
            mask |= 1 << cell
            # group_bits holds only earlier groups here: each pair is met once.
            twice |= seen & group_bits[cell]
            seen |= group_bits[cell]
            group_bits[cell] |= gbit
            value = values[cell]
            if not value:
                continue
            if used >> value & 1:
                first = next(c for c in group if values[c] == value)
                conflict = (
                    f"givens conflict: cells {first + 1} and {cell + 1} both "
                    f"hold {value} in one constraint group"
                )
                return SolveOutcome(exhausted=True, diagnostics=[conflict])
            used |= 1 << value
        gmask.append(mask)
        for cell in group:
            peers[cell] |= mask
            cand[cell] &= ~used
        while twice:
            h = twice.bit_length() - 1
            twice ^= 1 << h
            span = max(span, (mask & gmask[h]).bit_count())
    first_fault = _certificate(problem)
    onehot = [1 << value for value in values]  # 1 << values[i], stale where values is
    plane = [(1 << total) - 1] * (n + 1)  # bit i: cell i can take v, if free
    sv = [(1 << len(groups)) - 1] * (n + 1)  # bit g of sv[v]: count v's places in g
    by_count = [0] * (n + 1)  # bit i of by_count[k]: free cell i has k candidates
    free = 0
    for i, value in enumerate(values):
        if value:
            plane[value] &= ~peers[i]
            sv[value] &= ~group_bits[i]
        else:
            free |= 1 << i
            by_count[cand[i].bit_count()] |= 1 << i
    low = by_count[0] | by_count[1]  # bit i: free cell i has at most one candidate
    dead = by_count[0] != 0  # some free cell has no candidate
    # Bit i of slices[b] is bit b of free cell i's candidate count as of
    # stack[:synced].  The masks of by_count are disjoint, so a sum is an OR.
    bits = range(n.bit_length())
    slices = [sum(m for k, m in enumerate(by_count) if k >> b & 1) for b in bits]
    synced = 0
    # (cell, values left to try there, the peers its value left, slices),
    # or (~v, 0, the cells a locked step took v from, slices), when pushed
    stack: list[tuple[int, int, int, list[int]]] = []
    solutions: list[Assignment] = []
    nodes = 0
    while True:
        stop = -1
        if free and not low:
            # Every group holds each value once, so a value missing from a
            # group goes in exactly one of its free cells: a value no cell
            # there can take is a dead end, and one that a single cell can
            # take (a hidden single) is placed there outright.  If its
            # places all lie in another group h too, h's v is among them,
            # so v leaves h's other cells.  Only stale (group, value) pairs
            # are counted; the pass stops at the lowest group with one of
            # at most one place, and hands over that group and value.
            below = -1
            for v in range(1, n + 1):
                todo = sv[v] & below
                if todo:
                    places = plane[v] & free
                    while todo:
                        gbit = todo & -todo
                        todo ^= gbit
                        gid = gbit.bit_length() - 1
                        count = (p := places & gmask[gid]).bit_count()
                        if count <= span:
                            if count < 2:
                                stop, below, put = gid, gbit - 1, v
                                break
                            # A group h that holds all of p holds its first and
                            # last cells, so only the other groups of both can.
                            hs = group_bits[(p & -p).bit_length() - 1] ^ gbit
                            hs &= group_bits[p.bit_length() - 1]
                            if not hs:
                                continue
                            lost = 0
                            while hs:
                                k = hs.bit_length() - 1
                                hs ^= 1 << k
                                h = gmask[k]
                                if p & h == p:
                                    lost |= (places & h) ^ p
                            if lost:
                                places ^= lost
                                plane[v] ^= lost
                                stack.append((~v, 0, lost, slices))
                                bit = 1 << v
                                while lost:
                                    peer = lost.bit_length() - 1
                                    lost ^= 1 << peer
                                    m = cand[peer] ^ bit
                                    cand[peer] = m
                                    sv[v] |= group_bits[peer]
                                    todo |= group_bits[peer] & below
                                    if not m & (m - 1):
                                        low |= 1 << peer
                                        dead = dead or not m
                    sv[v] &= ~below  # every stale pair under `below` was counted
        if stop >= 0:
            # A placed value has no place in the group, so fewer values
            # with a place than free cells leaves a missing value none: a
            # dead end.  Else the pass's value has one place and goes there.
            cells = free & gmask[stop]
            held = len([v for v in range(1, n + 1) if plane[v] & cells])
            mask = 0 if held < cells.bit_count() else 1 << put
            cell = (plane[put] & cells).bit_length() - 1
        elif dead:
            mask = 0
        elif low:
            cell = (low & -low).bit_length() - 1
            mask = cand[cell]
        elif not free:
            if first_fault(onehot) is not None:
                # Report the grid certified; values may not match it.
                sol = Assignment(n, tuple(b.bit_length() - 1 for b in onehot))
                detail = verify_solution(problem, sol).detail
                raise SelfCheckError(
                    f"search emitted an invalid solution: {detail}", sol
                )
            solutions.append(Assignment(n, tuple(values)))
            if len(solutions) == cap:
                break
            mask = 0
        else:
            # Every free cell has two or more candidates.  Each frame pushed
            # since the last branch node took one from each of its lost
            # cells: subtract 1 there in a copy (the frames keep the old
            # list), a borrow rippling up the slices.  Then from the top slice
            # down, keep the cells with a 0 if any has one.
            slices = slices[:]
            for _, _, borrow, _ in stack[synced:]:
                for b in bits:
                    s = slices[b]
                    slices[b], borrow = s ^ borrow, borrow & ~s
                    if not borrow:
                        break
            synced = len(stack)
            fewest = free
            for s in reversed(slices):
                fewest = fewest & ~s or fewest
            cell = (fewest & -fewest).bit_length() - 1
            mask = cand[cell]
        if not mask:
            # A dead end or a solution: undo back to the deepest cell with a
            # value left.  Only a branch node's frame has one, pushed just
            # after the node brought the slices up to date; no cell there had
            # fewer than two candidates and no pair was stale.
            low, dead, sv = 0, False, [0] * (n + 1)
            while stack:
                cell, mask, back, slices = stack.pop()
                if cell < 0:
                    value = ~cell
                else:
                    value = values[cell]
                    free |= 1 << cell
                plane[value] ^= back
                bit = 1 << value
                while back:
                    peer = back.bit_length() - 1
                    back ^= 1 << peer
                    cand[peer] |= bit
                if mask:
                    break
            else:
                break
            synced = len(stack)
        # Place the lowest value left at the cell.
        cbit = 1 << cell
        bit = mask & -mask
        value = bit.bit_length() - 1
        nodes += 1
        values[cell] = value
        onehot[cell] = bit
        low &= ~cbit
        free ^= cbit
        lost = plane[value] & peers[cell] & free
        plane[value] ^= lost
        stack.append((cell, mask ^ bit, lost, slices))
        touched = 0
        while lost:
            peer = lost.bit_length() - 1
            lost ^= 1 << peer
            m = cand[peer] ^ bit
            cand[peer] = m
            touched |= group_bits[peer]
            if not m & (m - 1):
                low |= 1 << peer
                dead = dead or not m
        # v is no longer missing from the cell's groups, and each of its
        # other candidates lost a place in each of them.
        own = group_bits[cell]
        sv[value] = (sv[value] | touched) & ~own
        others = cand[cell] ^ bit
        while others:
            w = others.bit_length() - 1
            others ^= 1 << w
            sv[w] |= own
    # The loop ends at the cap or, exhausted, when the stack empties short of it.
    return SolveOutcome(solutions, nodes, len(solutions) != cap)


def brute_force(problem: ProblemSpec) -> SolveOutcome:
    """Exhaustive fill-in enumeration filtered by the library's certificate.

    Independent of ``solve``'s search: no propagation, no pruning beyond the
    fixed givens.  One ``product`` over each cell's bits (``1 << given``, or
    ``1 << v`` for v in 1..n) yields every whole grid, the last cell fastest.
    Each grid is a node tested by the certificate, built once; a grid it
    accepts is built as an Assignment of its values.  Refuses when
    n ** free_cells exceeds BRUTE_FORCE_LIMIT.
    """
    require_instance("problem", problem, ProblemSpec)
    n = problem.n
    given_map = dict(problem.givens)
    free = n * n - len(given_map)
    if n**free > BRUTE_FORCE_LIMIT:
        raise SearchSpaceError(
            f"{n}^{free} candidate fill-ins exceed the {BRUTE_FORCE_LIMIT} bound"
        )
    outcome = SolveOutcome(nodes_explored=n**free, exhausted=True)
    first_fault = _certificate(problem)
    bits = [1 << value for value in range(1, n + 1)]
    choices = [
        (1 << given_map[i],) if i in given_map else bits for i in range(1, n * n + 1)
    ]
    for grid in product(*choices):
        if first_fault(grid) is None:
            outcome.solutions.append(Assignment(n, tuple(b.bit_length() - 1 for b in grid)))
    return outcome


def make_latin_spec(n: int, givens: Iterable[tuple[int, int]] = ()) -> ProblemSpec:
    """Rows and columns only (the duplicated-column-constraint case)."""
    pi2 = transpose_permutation(n)
    return ProblemSpec(n, (identity_permutation(n), pi2, pi2), givens)


def make_classic_spec(n: int, givens: Iterable[tuple[int, int]] = ()) -> ProblemSpec:
    """Rows, columns and sqrt(n) x sqrt(n) subsquares; n must be a square."""
    require_int("n", n)
    if n < 4 or math.isqrt(n) ** 2 != n:
        raise SpecError(f"n must be a perfect square >= 4, got {n}")
    return ProblemSpec(
        n,
        (identity_permutation(n), transpose_permutation(n), block_permutation(n)),
        givens,
    )


def make_gerechte_spec(
    part: Partition, givens: Iterable[tuple[int, int]] = ()
) -> ProblemSpec:
    """Rows, columns and the caller's region partition."""
    regions = partition_permutation(part)
    n = part.n
    return ProblemSpec(
        n, (identity_permutation(n), transpose_permutation(n), regions), givens
    )
