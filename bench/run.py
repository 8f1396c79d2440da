"""gensudoku benchmark: seeded closed-loop workloads with independent checks.

Run from the repository root:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 12 --trace 0

One client, one process, one thread; each operation starts when the one
before it has ended.  Workloads (see ``inputs.py`` for the inputs):

    cli-9x9      in-process ``run_cli`` requests on generated 9x9 files;
                 an operation is one request.
    enumerate    full enumerations with self-check; work unit: a solution.
    hard-search  hard unique 9x9 puzzles (cap 2), empty Latin 20x20 and
                 empty classic 25x25 (cap 1, wall-clock budget), no
                 self-check; an operation is one instance.
    oracle       ``brute_force`` on tiny instances; work unit: a candidate.

A run imports the package from ``src/`` several times and builds the first
round's specs each time (``setup_s`` is the median nominal time, see below),
replays round 0 to warm up, then replays a cycle of the seed's first rounds
(``CYCLE``), starting again at round 0, until ``--seconds`` have passed, the
workload's minimum operation count is reached and the cycle is whole, so that
every operation of the cycle has run the same number of times.  Every output
goes through ``checker.py``.  The machine-independent counters of round 0
(nodes, solutions, candidates, budget overruns; with ``--trace 1`` also every
traced call count) must repeat exactly between the warm-up and the measured
replay, or the run is not correct.

``--trace 0`` prints the end-to-end metrics: ``throughput_per_s``,
``setup_s`` and ``peak_rss_mib``.  Times are taken at a nominal host speed.
A shared host runs the same code up to twice as slowly for seconds or minutes
at a time, depending on what else runs there, so raw rates of the same code
spread by half from run to run.  The run therefore times a fixed pure-Python
task of its own (``reference_s``, no package code) before the first
operation and after every operation, and scales each operation's time by
``REFERENCE_S`` over the mean of the two reference times around it: its
nominal time, the time it would have taken with the host at the speed where
the task takes ``REFERENCE_S``.  Set-up repeats are scaled by the reference
times around them.  An attempt stopped by its budget is charged its
wall-clock time unscaled.
``throughput_per_s`` is the work units of one cycle over the sum of each of
its operations' median nominal time.  The summary line adds the raw mean and
median-round throughput, the median reference time, the median operation
latency and the highest percentile that keeps ten samples beyond it at the
workload's minimum operation count, with the number of samples beyond it.
``--trace 1`` wraps the package (``tracing.py``) and prints the per-layer
metrics: counts of round 0, seconds per round, and ratios.  Both print a
summary line and then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 without a result
means the benchmark could not run (for instance, no ``src/gensudoku``).
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from checker import Instance, cli_fault, outcome_fault
from inputs import WORKLOADS, latin_squares, make_round
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
# Input files of cli-9x9 requests; one directory per process.
WORK_DIR = Path(__file__).resolve().parent / ".work" / str(os.getpid())
SETUP_REPEATS = 21
# Fewest operations per measured run; the tail percentile is the highest
# with at least ten samples beyond it at this count.
MIN_OPS = {"cli-9x9": 1000, "enumerate": 40, "hard-search": 40, "oracle": 40}
# Rounds of the seed that a run replays in turn: several where a round is
# short, so that more of the seed's inputs are timed.
CYCLE = {"cli-9x9": 8, "enumerate": 1, "hard-search": 1, "oracle": 2}
# A run ends after whole rounds; it stops at this many times --seconds even
# if the minimum operation count is not reached.
MAX_STRETCH = 4
# Nominal seconds of one ``reference_s`` task, about its best time on a
# quiet 2-vCPU x86-64 host with CPython 3.11.
REFERENCE_S = 0.0025
# Node count in the output of ``solve``, JSON or text.
NODES = re.compile(r'"nodes_explored": (\d+)|^solutions \d+ nodes (\d+)', re.MULTILINE)


class BudgetExceeded(BaseException):
    """Raised by the interval timer inside a budgeted call."""


def run_budgeted(fn, budget_s: float):
    """Call ``fn`` under a wall-clock budget; None when the budget ran out.

    The budget is an interval timer whose handler raises inside ``fn``, so
    the call is stopped from outside and no thread or process is started.
    """
    armed = True

    def on_alarm(signum, frame):
        if armed:
            raise BudgetExceeded

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            return fn()
        finally:
            armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return None
    finally:
        signal.signal(signal.SIGALRM, previous)


def import_package() -> SimpleNamespace:
    """Import the package afresh from ``src/`` and return its modules."""
    for name in [m for m in sys.modules if m == "gensudoku" or m.startswith("gensudoku.")]:
        del sys.modules[name]
    importlib.import_module("gensudoku")
    importlib.import_module("gensudoku.cli")
    return SimpleNamespace(
        problems=sys.modules["gensudoku.problems"],
        permutations=sys.modules["gensudoku.permutations"],
        cli=sys.modules["gensudoku.cli"],
    )


def build_spec(pkg, inst: Instance):
    problems = pkg.problems
    if inst.family == "classic":
        return problems.make_classic_spec(inst.n, inst.givens)
    if inst.family == "latin":
        return problems.make_latin_spec(inst.n, inst.givens)
    part = pkg.permutations.Partition(inst.n, inst.regions)
    return problems.make_gerechte_spec(part, inst.givens)


def run_instance(pkg, inst: Instance):
    """Solve or brute-force one instance: (seconds, fault, counters)."""
    counters = {"nodes": 0, "solutions": 0, "candidates": 0, "overruns": 0}
    try:
        spec = build_spec(pkg, inst)
    except Exception as exc:  # a fault of the package: record it, keep running
        return 0.0, f"{inst.label}: building the spec raised {exc!r}", counters
    start = perf_counter()
    try:
        if inst.oracle:
            outcome = pkg.problems.brute_force(spec)
        elif inst.budget_s is not None:
            outcome = run_budgeted(
                lambda: pkg.problems.solve(spec, cap=inst.cap, selfcheck=inst.selfcheck),
                inst.budget_s,
            )
        else:
            outcome = pkg.problems.solve(spec, cap=inst.cap, selfcheck=inst.selfcheck)
    except Exception as exc:  # a fault of the package: record it, keep running
        return perf_counter() - start, f"{inst.label}: raised {exc!r}", counters
    elapsed = perf_counter() - start
    if outcome is None:
        counters["overruns"] = 1
        return elapsed, None, counters
    grids = [tuple(sol.cells) for sol in outcome.solutions]
    counters["solutions"] = len(grids)
    if inst.oracle:
        counters["candidates"] = inst.work
    else:
        counters["nodes"] = outcome.nodes_explored
    fault = outcome_fault(inst, grids, outcome.exhausted)
    return elapsed, fault and f"{inst.label}: {fault}", counters


def run_request(pkg, req):
    """Send one CLI request in process: (seconds, fault, counters)."""
    for name, text in req.files:
        (WORK_DIR / name).write_text(text)
    names = {name for name, _ in req.files}
    argv = [str(WORK_DIR / a) if a in names else a for a in req.argv]
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.run_cli(argv)
    except Exception as exc:  # a fault of the package: record it, keep running
        return perf_counter() - start, f"{req.label}: raised {exc!r}", {"requests": 1}
    elapsed = perf_counter() - start
    text = out.getvalue()
    nodes = NODES.search(text)
    counters = {"requests": 1, "nodes": int(nodes.group(1) or nodes.group(2)) if nodes else 0}
    fault = cli_fault(req, code, text)
    return elapsed, fault and f"{req.label}: {fault}", counters


def reference_s() -> float:
    """Seconds to enumerate the 24 Latin squares of order 4 with a fixed first
    row, four times, in the benchmark's own code: the host's current speed."""
    start = perf_counter()
    for _ in range(4):
        latin_squares.__wrapped__(4, first_row_fixed=True)
    return perf_counter() - start


def run_round(pkg, workload: str, seed: int, r: int, log: dict) -> None:
    """Run round r, adding each operation's time, fault and counters to ``log``."""
    log["rounds"].append([0, 0.0])  # work units, operation seconds
    for i, op in enumerate(make_round(workload, seed, r)):
        if workload == "cli-9x9":
            elapsed, fault, counters = run_request(pkg, op)
            work = 1
        else:
            elapsed, fault, counters = run_instance(pkg, op)
            work = counters["solutions"] if workload == "enumerate" else op.work
        log["times"].append(elapsed)
        if "reference" in log:
            before, after = log["reference"][-1], reference_s()
            log["reference"].append(after)
            scale = 1.0 if counters.get("overruns") else REFERENCE_S / ((before + after) / 2)
            log["ops"].append(((r, i), work, elapsed * scale))
        log["rounds"][-1][0] += work
        log["rounds"][-1][1] += elapsed
        if fault is not None:
            log["faults"].append(fault)
        for key, value in counters.items():
            log["counters"][key] = log["counters"].get(key, 0) + value


def new_log(reference: bool = False) -> dict:
    """An empty log; with ``reference``, the reference task is timed now and
    after every operation, and ``ops`` gets each operation's nominal time."""
    log = {"times": [], "rounds": [], "faults": [], "counters": {}}
    if reference:
        log.update(ops=[], reference=[reference_s()])
    return log


def measure_setup(workload: str, seed: int):
    """Median nominal seconds to import the package and build round 0's specs."""
    ops = [op for op in make_round(workload, seed, 0) if isinstance(op, Instance)]
    times, reference = [], [reference_s()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pkg = import_package()
        for inst in ops:
            build_spec(pkg, inst)
        elapsed = perf_counter() - start
        reference.append(reference_s())
        times.append(elapsed * REFERENCE_S / ((reference[-2] + reference[-1]) / 2))
    return statistics.median(times), pkg


def measured_loop(pkg, workload: str, seed: int, seconds: float, on_round=None, reference=False):
    """Whole cycles from round 0 until the time and operation floors are met."""
    log = new_log(reference)
    rounds = 0
    start = perf_counter()
    while True:
        run_round(pkg, workload, seed, rounds % CYCLE[workload], log)
        rounds += 1
        if on_round is not None:
            on_round(rounds, log)
        elapsed = perf_counter() - start
        if rounds % CYCLE[workload]:
            continue
        if elapsed >= seconds and len(log["times"]) >= MIN_OPS[workload]:
            break
        if elapsed >= MAX_STRETCH * seconds:
            break
    return log, rounds


def tail_percentile(workload: str) -> int:
    floor = MIN_OPS[workload]
    return max(p for p in (50, 75, 90, 95, 99) if floor * (100 - p) >= 1000)


def nominal_throughput(log) -> float:
    """Work of one cycle over the sum of its operations' median nominal times."""
    nominal, work = {}, {}
    for key, units, seconds in log["ops"]:
        nominal.setdefault(key, []).append(seconds)
        work[key] = units
    return sum(work.values()) / sum(statistics.median(v) for v in nominal.values())


def end_to_end(workload: str, seed: int, seconds: float, setup_s: float, pkg):
    warm = new_log()
    run_round(pkg, workload, seed, 0, warm)
    round0 = {}

    def keep_round0(rounds, log):
        if rounds == 1:
            round0.update(log["counters"])

    log, rounds = measured_loop(pkg, workload, seed, seconds, keep_round0, reference=True)
    times = log["times"]
    rates = [work / busy for work, busy in log["rounds"] if busy > 0]
    pct = tail_percentile(workload)
    tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    repeat = round0 == warm["counters"]
    metrics = {
        "throughput_per_s": (nominal_throughput(log), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    summary = (
        f"workload={workload} seed={seed} rounds={rounds} ops={len(times)} "
        f"busy_s={sum(times):.3f} reference_p50_ms={statistics.median(log['reference']) * 1e3:.4f} "
        f"mean_per_s={sum(w for w, _ in log['rounds']) / sum(times):.6g} "
        f"median_round_per_s={statistics.median(rates):.6g} "
        f"p50_ms={statistics.median(times) * 1e3:.3f} p{pct}_ms={tail * 1e3:.3f} "
        f"({sum(t > tail for t in times)} of {len(times)} beyond) "
        f"round0={json.dumps(warm['counters'], sort_keys=True)} counters_repeat={repeat}"
    )
    return log, repeat, metrics, summary


def per_layer(workload: str, seed: int, seconds: float, pkg):
    # Round 0 three times: with every counter (which also warms up), without
    # tracing, and traced as the first round of the measured loop.
    tracer = Tracer()
    tracer.install(count_permutation_calls=True)
    try:
        counting = new_log()
        run_round(pkg, workload, seed, 0, counting)
        round0 = tracer.counts()
        permutation_calls = tracer.permutation_calls
    finally:
        tracer.uninstall()
    tracer.reset()
    untraced = new_log()
    run_round(pkg, workload, seed, 0, untraced)
    tracer.install()
    replay = {}

    def keep_round0(rounds, log):
        if rounds == 1:
            replay.update(counts=tracer.counts(), times=list(log["times"]))

    try:
        log, rounds = measured_loop(pkg, workload, seed, seconds, keep_round0)
    finally:
        tracer.uninstall()
    repeat = replay["counts"] == round0 and counting["counters"] == untraced["counters"]
    # Median over round 0's operations of traced time over untraced time.
    overhead = statistics.median(t / u for t, u in zip(replay["times"], untraced["times"]))

    def count(name, field="calls"):
        return sum(v.get(field, 0) for k, v in round0.items() if k.endswith(f">{name}"))

    def per_round(name, field="incl_s"):
        return tracer.total(name, field) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    solve_s = tracer.total("problems.solve", "incl_s")
    certify_s = sum(
        tracer.total(name, "incl_s", "problems.solve")
        for name in ("problems.verify", "condition.check_necessary", "condition.check_givens")
    )
    search_s = tracer.total("problems.solve", "self_s")
    metrics = {
        "problems.search_self_s": (per_round("problems.solve", "self_s"), "s/round"),
        "problems.search_share": (ratio(search_s, solve_s), "ratio"),
        "problems.nodes": (count("problems.solve", "nodes"), "count/round"),
        "problems.nodes_per_s": (ratio(tracer.total("problems.solve", "nodes"), search_s), "1/s"),
        "problems.solutions": (count("problems.solve", "solutions") + count("problems.brute", "solutions"), "count/round"),
        "problems.certify_share": (ratio(certify_s, solve_s), "ratio"),
        "problems.verify_calls": (count("problems.verify"), "count/round"),
        "problems.verify_s": (per_round("problems.verify"), "s/round"),
        "problems.verify_accept_ratio": (
            ratio(tracer.total("problems.verify", "accepted"), tracer.total("problems.verify", "calls")),
            "ratio",
        ),
        "problems.constraint_groups_calls": (count("problems.groups"), "count/round"),
        "problems.constraint_groups_s": (per_round("problems.groups"), "s/round"),
        "problems.brute_candidates": (count("problems.brute", "nodes"), "count/round"),
        "problems.brute_self_s": (per_round("problems.brute", "self_s"), "s/round"),
        "problems.brute_verify_share": (
            ratio(tracer.total("problems.verify", "incl_s", "problems.brute"), tracer.total("problems.brute", "incl_s")),
            "ratio",
        ),
        "problems.brute_accept_ratio": (
            ratio(tracer.total("problems.brute", "solutions"), tracer.total("problems.brute", "nodes")),
            "ratio",
        ),
        "problems.spec_build_s": (per_round("problems.spec"), "s/round"),
        "problems.budget_overruns": (counting["counters"].get("overruns", 0), "count/round"),
        "condition.check_necessary_calls": (count("condition.check_necessary"), "count/round"),
        "condition.check_necessary_s": (per_round("condition.check_necessary"), "s/round"),
        "condition.check_givens_calls": (count("condition.check_givens"), "count/round"),
        "condition.check_givens_s": (per_round("condition.check_givens"), "s/round"),
        "matrices.build_calls": (count("matrices.build"), "count/round"),
        "matrices.apply_calls": (count("matrices.apply"), "count/round"),
        "matrices.apply_s": (per_round("matrices.apply"), "s/round"),
        "matrices.apply_transpose_s": (per_round("matrices.apply_transpose"), "s/round"),
        "matrices.rows_applied": (
            count("matrices.apply", "rows") + count("matrices.apply_transpose", "rows"),
            "count/round",
        ),
        "permutations.call_count": (permutation_calls, "count/round"),
        "permutations.construct_s": (per_round("permutations.construct"), "s/round"),
        "puzzle_io.load_calls": (count("puzzle_io.load"), "count/round"),
        "puzzle_io.load_s": (per_round("puzzle_io.load", "self_s"), "s/round"),
        "puzzle_io.render_s": (per_round("puzzle_io.render"), "s/round"),
        "cli.requests": (count("cli.run_cli"), "count/round"),
        "cli.self_s": (per_round("cli.run_cli", "self_s"), "s/round"),
        "trace_overhead": (overhead, "ratio"),
    }
    summary = (
        f"workload={workload} seed={seed} traced rounds={rounds} ops={len(log['times'])} "
        f"absent={','.join(tracer.absent) or 'none'} counters_repeat={repeat}"
    )
    return log, repeat, metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gensudoku" / "__init__.py").is_file():
        print(f"error: no package to benchmark at {src / 'gensudoku'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import_package()  # the first import, outside the timing
    origin = Path(sys.modules["gensudoku"].__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"error: imported gensudoku from {origin}, not from {src}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, pkg = measure_setup(args.workload, args.seed)
        if args.trace:
            log, repeat, metrics, summary = per_layer(args.workload, args.seed, args.seconds, pkg)
        else:
            log, repeat, metrics, summary = end_to_end(args.workload, args.seed, args.seconds, setup_s, pkg)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        with suppress(OSError):
            WORK_DIR.parent.rmdir()

    for fault in log["faults"][:10]:
        print(f"fault: {fault}")
    print(summary)
    result = {
        "correct": not log["faults"] and repeat,
        "attempted": len(log["times"]),
        "failed": len(log["faults"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
